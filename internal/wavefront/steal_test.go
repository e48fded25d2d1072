package wavefront

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestPartitionEdgeCases pins the boundary behaviour the tiling code
// relies on: a block size exceeding n yields one span, n == 0 yields no
// spans, and an uneven tail yields a short final span.
func TestPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		n, b  int
		spans []Span
	}{
		{"empty", 0, 1, nil},
		{"empty large block", 0, 1000, nil},
		{"block exceeds n", 3, 64, []Span{{0, 3}}},
		{"block much larger than n", 1, 1 << 20, []Span{{0, 1}}},
		{"exact multiple", 8, 4, []Span{{0, 4}, {4, 8}}},
		{"uneven tail", 10, 4, []Span{{0, 4}, {4, 8}, {8, 10}}},
		{"tail of one", 9, 4, []Span{{0, 4}, {4, 8}, {8, 9}}},
		{"n one under block", 7, 8, []Span{{0, 7}}},
	}
	for _, c := range cases {
		got := Partition(c.n, c.b)
		if len(got) != len(c.spans) {
			t.Fatalf("%s: Partition(%d,%d) = %v, want %v", c.name, c.n, c.b, got, c.spans)
		}
		for i := range got {
			if got[i] != c.spans[i] {
				t.Fatalf("%s: Partition(%d,%d)[%d] = %v, want %v", c.name, c.n, c.b, i, got[i], c.spans[i])
			}
		}
	}
}

// TestRun3DContextPredecessorsComplete is the scheduler property test:
// over random grid shapes and worker counts, every block must observe all
// of its axis predecessors completed when it starts. A completion flag per
// block is set after fn returns; fn checks the flags of its predecessors.
// Any scheduling bug (a lost dependency, a premature dispatch, a missing
// happens-before edge) trips the violation flag — and shows up as a data
// race under -race, since the flag reads are ordered only by the
// scheduler's own synchronization.
func TestRun3DContextPredecessorsComplete(t *testing.T) {
	f := func(di, dj, dk, w uint8) bool {
		nbi, nbj, nbk := int(di)%6+1, int(dj)%6+1, int(dk)%6+1
		workers := int(w)%8 + 1
		total := nbi * nbj * nbk
		completed := make([]atomic.Bool, total)
		idx := func(bi, bj, bk int) int { return (bi*nbj+bj)*nbk + bk }
		var violation atomic.Bool
		err := Run3DContext(context.Background(), nbi, nbj, nbk, workers, func(bi, bj, bk int) {
			if bi > 0 && !completed[idx(bi-1, bj, bk)].Load() ||
				bj > 0 && !completed[idx(bi, bj-1, bk)].Load() ||
				bk > 0 && !completed[idx(bi, bj, bk-1)].Load() {
				violation.Store(true)
			}
			completed[idx(bi, bj, bk)].Store(true)
		})
		if err != nil || violation.Load() {
			return false
		}
		for i := range completed {
			if !completed[i].Load() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRun3DContextLargeGridFrontierMemory is the O(workers + frontier)
// smoke test: a grid of 40^3 = 64000 blocks with a trivial fn completes
// quickly, and after the run every shard map is empty (no per-block state
// survives) and the deques are drained.
func TestRun3DContextLargeGridFrontierMemory(t *testing.T) {
	const nb = 40
	var count atomic.Int64
	r := newStealRun(context.Background(), nb, nb, nb, 4, func(bi, bj, bk int) { count.Add(1) })
	defer r.cancel()
	var wg sync.WaitGroup
	for slot := 1; slot < 4; slot++ {
		wg.Add(1)
		go func(s int) { defer wg.Done(); r.participate(s, noBlock) }(slot)
	}
	r.participate(0, 0)
	wg.Wait()
	if count.Load() != nb*nb*nb {
		t.Fatalf("ran %d blocks, want %d", count.Load(), nb*nb*nb)
	}
	for i := range r.shards {
		if n := len(r.shards[i].m); n != 0 {
			t.Fatalf("shard %d retains %d predecessor entries after completion", i, n)
		}
	}
	for i := range r.deques {
		if _, ok := r.deques[i].pop(); ok {
			t.Fatalf("deque %d not drained after completion", i)
		}
	}
}

// TestSchedStats checks the counters move coherently across a run: blocks
// executed equals the grid size, keeps+steals never exceed blocks, and a
// multi-worker run on a warm pool is recorded as a work-stealing run.
func TestSchedStats(t *testing.T) {
	warmPool(t, 4)
	before := Stats()
	const nbi, nbj, nbk = 6, 6, 6
	if err := Run3DContext(context.Background(), nbi, nbj, nbk, 4, func(_, _, _ int) {}); err != nil {
		t.Fatal(err)
	}
	d := Stats().Sub(before)
	if d.Runs+d.SoloRuns != 1 {
		t.Fatalf("runs %d + solo %d, want exactly one run", d.Runs, d.SoloRuns)
	}
	if d.Runs == 1 {
		if d.Blocks != nbi*nbj*nbk {
			t.Fatalf("blocks = %d, want %d", d.Blocks, nbi*nbj*nbk)
		}
		if d.Keeps+d.Steals > d.Blocks {
			t.Fatalf("keeps %d + steals %d exceed blocks %d", d.Keeps, d.Steals, d.Blocks)
		}
		if d.HelperJoins < 1 {
			t.Fatalf("helper joins = %d, want >= 1", d.HelperJoins)
		}
	}
	if d.PoolCapacity < 4 {
		t.Fatalf("pool capacity = %d, want >= 4", d.PoolCapacity)
	}
}

// TestDeque exercises the LIFO-own / FIFO-steal contract.
func TestDeque(t *testing.T) {
	var d wdeque
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque succeeded")
	}
	d.push(1)
	d.push(2)
	d.push(3)
	if id, ok := d.steal(); !ok || id != 1 {
		t.Fatalf("steal = %d,%v, want oldest (1)", id, ok)
	}
	if id, ok := d.pop(); !ok || id != 3 {
		t.Fatalf("pop = %d,%v, want newest (3)", id, ok)
	}
	if id, ok := d.pop(); !ok || id != 2 {
		t.Fatalf("pop = %d,%v, want 2", id, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("deque not empty after draining")
	}
	// Reuse after drain: the head offset must reset.
	d.push(7)
	if id, ok := d.steal(); !ok || id != 7 {
		t.Fatalf("steal after reset = %d,%v, want 7", id, ok)
	}
}

// TestTryGoCapacity checks pool admission: a saturated pool rejects
// without blocking, and a freed slot is granted again.
func TestTryGoCapacity(t *testing.T) {
	// A helper from an earlier test may still hold a slot: its block is
	// done, but it has not yet re-registered as idle. Wait for every slot
	// to be free before counting them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pool.mu.Lock()
		busy := pool.spawned - pool.idle
		pool.mu.Unlock()
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pool slots still busy after 10s", busy)
		}
		time.Sleep(time.Millisecond)
	}
	// Occupy the whole current capacity with parked tasks.
	_, capacity := poolSizes()
	if capacity == 0 {
		GrowPool(2)
		_, capacity = poolSizes()
	}
	release := make(chan struct{})
	var parked sync.WaitGroup
	granted := 0
	for i := 0; i < capacity; i++ {
		parked.Add(1)
		if !TryGo(func() { parked.Done(); <-release }) {
			parked.Done()
			break
		}
		granted++
	}
	if granted != capacity {
		close(release)
		parked.Wait()
		t.Fatalf("granted %d tasks, want capacity %d", granted, capacity)
	}
	parked.Wait()
	if TryGo(func() {}) {
		close(release)
		t.Fatal("TryGo granted a slot on a saturated pool")
	}
	close(release)
	// After the tasks drain, a slot must be reusable without spawning.
	spawnedBefore, _ := poolSizes()
	ran := make(chan struct{})
	for !TryGo(func() { close(ran) }) {
		// Workers are between task end and idle re-registration; retry.
	}
	<-ran
	spawnedAfter, _ := poolSizes()
	if spawnedAfter > spawnedBefore {
		t.Fatalf("pool spawned %d new workers for a reusable slot", spawnedAfter-spawnedBefore)
	}
}

// TestPoolPrewarm checks the serving-layer startup hook: Prewarm raises
// capacity, eagerly parks workers, and TryGo then reuses them without
// spawning.
func TestPoolPrewarm(t *testing.T) {
	spawnedBefore, capBefore := poolSizes()
	want := spawnedBefore + 2
	if capBefore > want {
		want = capBefore // capacity never shrinks; just exercise the spawn path
	}
	Prewarm(want)
	spawned, capacity := poolSizes()
	if capacity < want {
		t.Fatalf("capacity = %d after Prewarm(%d)", capacity, want)
	}
	if spawned < capacity {
		t.Fatalf("spawned = %d, want %d parked workers (capacity)", spawned, capacity)
	}
	// Prewarmed workers must be claimable without new spawns.
	ran := make(chan struct{})
	if !TryGo(func() { close(ran) }) {
		t.Fatal("TryGo rejected on a prewarmed pool")
	}
	<-ran
	if after, _ := poolSizes(); after != spawned {
		t.Fatalf("TryGo spawned %d new workers on a prewarmed pool", after-spawned)
	}
	// Idempotent: a second Prewarm with the same target changes nothing.
	Prewarm(want)
	if again, _ := poolSizes(); again != spawned {
		t.Fatalf("repeated Prewarm spawned %d extra workers", again-spawned)
	}
}
