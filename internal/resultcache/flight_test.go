package resultcache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

func flightKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// TestSingleflightCollapsesConcurrentCalls: N concurrent Do calls with one
// key must run the computation exactly once, elect exactly one leader, and
// hand every caller the same value.
func TestSingleflightCollapsesConcurrentCalls(t *testing.T) {
	const n = 16
	var g Group[int]
	var runs atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	outcomes := make([]Outcome[int], n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = g.Do(context.Background(), flightKey(1), func() (int, error) {
				runs.Add(1)
				<-release // hold the flight open until all n have joined
				return 42, nil
			})
		}(i)
	}
	// Release the leader only once every other caller has joined its
	// flight; a caller still on its way to Do would start a new one.
	for joinedWaiters(&g, flightKey(1)) < n-1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	leaders := 0
	for i, out := range outcomes {
		if out.Err != nil || out.Val != 42 {
			t.Fatalf("outcome %d: val=%d err=%v", i, out.Val, out.Err)
		}
		if out.Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if g.Inflight() != 0 {
		t.Fatalf("flight not dissolved: %d in flight", g.Inflight())
	}
}

// joinedWaiters reports how many waiters have joined key's open flight.
func joinedWaiters[V any](g *Group[V], key Key) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// TestSingleflightCancelledWaiterLeavesLeaderRunning: a waiter whose
// context dies leaves with its context error while the leader's
// computation continues and succeeds.
func TestSingleflightCancelledWaiterLeavesLeaderRunning(t *testing.T) {
	var g Group[string]
	inFn := make(chan struct{})
	release := make(chan struct{})

	leaderOut := make(chan Outcome[string], 1)
	go func() {
		leaderOut <- g.Do(context.Background(), flightKey(2), func() (string, error) {
			close(inFn)
			<-release
			return "done", nil
		})
	}()
	<-inFn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiter := g.Do(ctx, flightKey(2), func() (string, error) {
		t.Error("waiter must not become a leader while the flight is open")
		return "", nil
	})
	if !errors.Is(waiter.Err, context.Canceled) || waiter.Leader {
		t.Fatalf("cancelled waiter outcome: %+v", waiter)
	}

	close(release) // the leader was never disturbed
	out := <-leaderOut
	if out.Err != nil || out.Val != "done" || !out.Leader {
		t.Fatalf("leader outcome after waiter cancel: %+v", out)
	}
}

// TestSingleflightSequentialCallsDoNotShare: once a flight completes, the
// next Do with the same key runs its own computation.
func TestSingleflightSequentialCallsDoNotShare(t *testing.T) {
	var g Group[int]
	var runs atomic.Int64
	fn := func() (int, error) { return int(runs.Add(1)), nil }
	first := g.Do(context.Background(), flightKey(3), fn)
	second := g.Do(context.Background(), flightKey(3), fn)
	if first.Val != 1 || second.Val != 2 || !first.Leader || !second.Leader {
		t.Fatalf("sequential calls shared a flight: %+v %+v", first, second)
	}
}

// TestSingleflightErrorShared: a leader error is delivered verbatim to
// every waiter and nothing hangs.
func TestSingleflightErrorShared(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	inFn := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan Outcome[int], 1)
	go func() {
		leaderOut <- g.Do(context.Background(), flightKey(4), func() (int, error) {
			close(inFn)
			<-release
			return 0, boom
		})
	}()
	<-inFn
	waiterOut := make(chan Outcome[int], 1)
	go func() {
		// If this call loses the race and starts a fresh flight, it fails
		// identically — either way the caller must see boom.
		waiterOut <- g.Do(context.Background(), flightKey(4), func() (int, error) {
			return 0, boom
		})
	}()
	close(release)
	for _, out := range []Outcome[int]{<-leaderOut, <-waiterOut} {
		if !errors.Is(out.Err, boom) {
			t.Fatalf("outcome error %v, want boom", out.Err)
		}
	}
}

// TestSingleflightChaosLeaderPanicTypedError arms the leader-panic fault:
// the panic must be contained, the leader and a concurrent waiter must
// both receive a typed *LeaderPanicError, and the group must dissolve the
// flight so the next call starts clean.
func TestSingleflightChaosLeaderPanicTypedError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("resultcache.flight.panic", "nth:1"); err != nil {
		t.Fatal(err)
	}
	var g Group[int]
	out := g.Do(context.Background(), flightKey(5), func() (int, error) {
		t.Error("fn ran despite the leader panic fault")
		return 0, nil
	})
	var lp *LeaderPanicError
	if !errors.As(out.Err, &lp) {
		t.Fatalf("leader error %v, want *LeaderPanicError", out.Err)
	}
	if lp.Key != flightKey(5) {
		t.Fatalf("panic error names key %s, want %s", lp.Key, flightKey(5))
	}
	if msg := lp.Error(); !strings.Contains(msg, "flight leader") || !strings.Contains(msg, lp.Key.String()) {
		t.Fatalf("panic error message %q does not name the flight and key", msg)
	}
	if g.Inflight() != 0 {
		t.Fatalf("panicked flight not dissolved: %d in flight", g.Inflight())
	}
	// The fault was nth:1, so the group recovers on the next call.
	next := g.Do(context.Background(), flightKey(5), func() (int, error) { return 7, nil })
	if next.Err != nil || next.Val != 7 {
		t.Fatalf("post-panic call: %+v", next)
	}
}

// TestSingleflightChaosPanicReachesWaiters repeats the panic with a parked
// waiter: both flight members get the typed error, neither hangs.
func TestSingleflightChaosPanicReachesWaiters(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	var g Group[int]
	inFn := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan Outcome[int], 1)
	go func() {
		leaderOut <- g.Do(context.Background(), flightKey(6), func() (int, error) {
			close(inFn)
			<-release
			panic("kernel exploded mid-flight")
		})
	}()
	<-inFn
	waiterOut := make(chan Outcome[int], 1)
	go func() {
		// If this call loses the race and starts a fresh flight instead of
		// collapsing, it panics identically — either way the caller must
		// see the typed error, never a hang or a bare panic.
		waiterOut <- g.Do(context.Background(), flightKey(6), func() (int, error) {
			panic("kernel exploded mid-flight")
		})
	}()
	close(release)
	for who, ch := range map[string]chan Outcome[int]{"leader": leaderOut, "waiter": waiterOut} {
		out := <-ch
		var lp *LeaderPanicError
		if !errors.As(out.Err, &lp) {
			t.Fatalf("%s error %v, want *LeaderPanicError", who, out.Err)
		}
	}
}
