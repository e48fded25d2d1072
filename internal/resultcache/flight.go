package resultcache

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/faultpoint"
)

// fpLeaderPanic panics inside a flight leader after it has registered the
// call but before the computation runs — the worst moment for a
// singleflight to die, because a naive implementation would leave every
// waiter parked on the done channel forever. The recover in Do must turn
// it into a typed error delivered to the leader and all waiters.
var fpLeaderPanic = faultpoint.New("resultcache.flight.panic")

// LeaderPanicError is the typed failure every member of a flight receives
// when the leader's computation panicked: the panic was contained, nothing
// was cached, and each affected request gets this error instead of a hang
// or a process crash.
type LeaderPanicError struct {
	Key   Key
	Cause any
}

func (e *LeaderPanicError) Error() string {
	return fmt.Sprintf("resultcache: flight leader for %s panicked: %v", e.Key, e.Cause)
}

// call is one in-flight computation: the leader fills val/err and closes
// done; waiters block on done. dups counts the waiters that joined,
// guarded by the group's mu.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	dups int
}

// Outcome is one flight member's view of a Do call.
type Outcome[V any] struct {
	// Val and Err are the computation's result, shared verbatim by every
	// member of the flight.
	Val V
	Err error
	// Leader reports that this caller ran the computation; the other
	// members collapsed onto it. A waiter whose own context expired before
	// the leader finished has Leader false and Err from its context.
	Leader bool
}

// Group collapses concurrent Do calls with equal keys onto one
// computation: the first caller becomes the leader and runs fn; callers
// arriving before the leader finishes become waiters and receive the
// leader's result. The zero Group is ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[Key]*call[V]
}

// Do runs fn under singleflight semantics for key.
//
// Context awareness is asymmetric by design: a waiter that cancels leaves
// the flight immediately with its own context error, but the leader's fn
// runs to completion regardless — its result is shared state, and one
// impatient client must not be able to kill work that other clients are
// waiting on. Callers that want the computation itself bounded put the
// bound inside fn (the serving layer runs fn under the server's base
// context with the request's deadline in its options, exactly like a
// coalesced flush).
//
// A panic in fn is contained: the leader and every waiter receive a
// *LeaderPanicError, the flight is dissolved so the next request starts
// fresh, and the panic does not propagate.
func (g *Group[V]) Do(ctx context.Context, key Key, fn func() (V, error)) Outcome[V] {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return Outcome[V]{Val: c.val, Err: c.err}
		case <-ctx.Done():
			var zero V
			return Outcome[V]{Val: zero, Err: ctx.Err()}
		}
	}
	c := &call[V]{done: make(chan struct{})}
	if g.m == nil {
		g.m = make(map[Key]*call[V])
	}
	g.m[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				var zero V
				c.val, c.err = zero, &LeaderPanicError{Key: key, Cause: r}
			}
			// Dissolve the flight before releasing the waiters so a request
			// arriving after a failure starts a fresh computation instead of
			// joining a dead one.
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
		}()
		if fpLeaderPanic.Fire() {
			panic("faultpoint: resultcache.flight.panic")
		}
		c.val, c.err = fn()
	}()
	return Outcome[V]{Val: c.val, Err: c.err, Leader: true}
}

// Inflight reports the number of keys currently being computed.
func (g *Group[V]) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
