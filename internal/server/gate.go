package server

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// gate is the two-stage admission control: a non-blocking bounded
// admission semaphore (the "queue" — waiting plus running requests) in
// front of a blocking run-slot semaphore (executing submissions). The
// split is what gives the server its load-shedding shape: admission fails
// fast with 429 when the queue is full, while admitted requests wait a
// bounded time — at most QueueDepth requests can be ahead of them — for
// one of MaxInFlight run slots.
type gate struct {
	admitCh chan struct{}
	runCh   chan struct{}

	admitted atomic.Int64 // slots currently held in admitCh
	inFlight atomic.Int64 // slots currently held in runCh
}

func newGate(queueDepth, maxInFlight int) *gate {
	return &gate{
		admitCh: make(chan struct{}, queueDepth),
		runCh:   make(chan struct{}, maxInFlight),
	}
}

// tryAdmit takes an admission slot without blocking; false means shed.
func (g *gate) tryAdmit() bool {
	select {
	case g.admitCh <- struct{}{}:
		g.admitted.Add(1)
		return true
	default:
		return false
	}
}

// releaseAdmit returns an admission slot.
func (g *gate) releaseAdmit() {
	<-g.admitCh
	g.admitted.Add(-1)
}

// acquireRun blocks for a run slot or until ctx is done.
func (g *gate) acquireRun(ctx context.Context) error {
	select {
	case g.runCh <- struct{}{}:
		g.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseRun returns a run slot.
func (g *gate) releaseRun() {
	<-g.runCh
	g.inFlight.Add(-1)
}

// loads reports the current admitted and in-flight gauges.
func (g *gate) loads() (admitted, inFlight int64) {
	return g.admitted.Load(), g.inFlight.Load()
}

// stats holds the cumulative request counters and the latency ring.
type stats struct {
	completed atomic.Int64 // requests answered 200 (batch items count individually)
	shed      atomic.Int64 // requests rejected 429
	failed    atomic.Int64 // requests (or batch items) that errored
	degraded  atomic.Int64 // results served from the heuristic fallback

	coalescedBatches  atomic.Int64 // coalesced flushes submitted
	coalescedRequests atomic.Int64 // requests served through a coalesced flush

	cacheFills     atomic.Int64 // flight-leader computations on the cached path
	cacheCollapsed atomic.Int64 // requests that piggybacked on a leader's computation

	estBytesInFlight   atomic.Int64 // planner-estimated bytes of executing alignments
	plannedDowngrades  atomic.Int64 // downgrade steps recorded by served plans
	plannedInt16       atomic.Int64 // served plans that negotiated 16-bit lattice cells
	plannedPacked      atomic.Int64 // served plans that selected a lane-packed kernel
	plannedBounded     atomic.Int64 // served plans that selected a bounded-search kernel
	prunedCellsSkipped atomic.Int64 // lattice cells the Carrillo–Lipman kernels never evaluated

	msaRequests      atomic.Int64 // /v1/msa requests admitted to execution
	msaCompleted     atomic.Int64 // /v1/msa requests answered 200
	msaSequences     atomic.Int64 // sequences aligned across completed MSA requests
	msaMerges        atomic.Int64 // progressive merges executed by completed MSA requests
	msaBatchedMerges atomic.Int64 // MSA merges fanned through a shared batch submission

	panicsContained     atomic.Int64 // panics recovered instead of crashing the process
	retriesObserved     atomic.Int64 // requests arriving with an X-Retry-Attempt header
	memPressureDegraded atomic.Int64 // admissions routed through the degrade ladder

	latency latencyRing
}

func newStats() *stats { return &stats{latency: latencyRing{buf: make([]time.Duration, 1024)}} }

// recordPlan folds one served execution plan into the planner counters:
// downgrade steps, negotiated 16-bit widths, and lane-packed kernel picks.
func (st *stats) recordPlan(pl *repro.Plan) {
	if pl == nil {
		return
	}
	st.plannedDowngrades.Add(int64(len(pl.Downgrades)))
	if pl.CellWidthBits == 16 {
		st.plannedInt16.Add(1)
	}
	// The full-lattice linear-gap kernel runs the lane-packed interior.
	if pl.Algorithm == "parallel" {
		st.plannedPacked.Add(1)
	}
	if pl.Algorithm == "bounded" {
		st.plannedBounded.Add(1)
	}
}

// recordPrune folds one result's Carrillo–Lipman statistics into the
// skipped-cells counter: the lattice cells the bound let the kernel never
// evaluate. Nil (a kernel without pruning) is a no-op.
func (st *stats) recordPrune(p *repro.PruneStats) {
	if p == nil {
		return
	}
	if skipped := p.TotalCells - p.EvaluatedCells; skipped > 0 {
		st.prunedCellsSkipped.Add(skipped)
	}
}

// latencyRing records the most recent request latencies in a fixed ring;
// quantiles sorts a snapshot. 1024 samples keep the p99 meaningful while
// the lock stays uncontended next to O(n³) alignment work.
type latencyRing struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int   // next write position
	n    int64 // total samples recorded
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	r.n++
	r.mu.Unlock()
}

// quantiles returns the p50/p90/p99 of the retained window (zeros before
// the first sample).
func (r *latencyRing) quantiles() (p50, p90, p99 time.Duration) {
	r.mu.Lock()
	filled := len(r.buf)
	if r.n < int64(filled) {
		filled = int(r.n)
	}
	snap := make([]time.Duration, filled)
	copy(snap, r.buf[:filled])
	r.mu.Unlock()
	if filled == 0 {
		return 0, 0, 0
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(filled-1))
		return snap[i]
	}
	return q(0.50), q(0.90), q(0.99)
}
