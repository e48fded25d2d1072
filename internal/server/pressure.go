package server

import (
	"runtime"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/faultpoint"
)

// The soft memory-pressure guard. MaxLatticeBytes caps what any single
// request may plan, but it cannot see the aggregate: enough concurrent
// mid-sized lattices push the heap toward the container limit and the next
// allocation OOM-kills the process. The guard samples runtime.MemStats on
// a ticker and classifies the heap against a configured soft limit into
// three levels; handlers consult the level per admission:
//
//   - ok: admit normally.
//   - degrade (heap ≥ MemDegradeFraction × soft limit): admit, but force a
//     soft planning budget (Options.MaxMemoryBytes) equal to the remaining
//     headroom, so the planner walks its downgrade ladder — full lattice →
//     sweep planes → heuristic last resort — and the request is served
//     with a smaller footprint (a degraded 200) instead of being refused.
//   - shed (heap ≥ soft limit): refuse new alignment work with 429 and a
//     Retry-After hint; serving anything new would risk the whole process.
//
// Degrade-before-shed is the point: the planner already knows how to trade
// memory for accuracy, so pressure routes through that ladder first and
// only sheds when there is no headroom left to plan into.

// pressureLevel is the guard's classification of the current heap.
type pressureLevel int32

const (
	pressureOK pressureLevel = iota
	pressureDegrade
	pressureShed
)

// Pressure fault points. Both are behavioral: a fired hit forces the
// corresponding level for that one admission, so chaos suites drive the
// degrade and shed paths deterministically instead of having to inflate
// the real heap to a configured boundary.
var (
	fpPressureDegrade = faultpoint.New("server.pressure.degrade")
	fpPressureShed    = faultpoint.New("server.pressure.shed")
)

// minPressureBudget floors the degrade budget so a near-zero headroom
// reading still leaves the planner something to plan into (the sweep-plane
// kernels fit comfortably below it for every admissible sequence length).
const minPressureBudget = 8 << 20

// pressureGuard samples the heap and publishes the current level.
type pressureGuard struct {
	soft      int64 // shed at or above this heap size
	degradeAt int64 // degrade at or above this heap size

	level    atomic.Int32
	lastHeap atomic.Int64

	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// newPressureGuard starts the sampler; nil when soft is non-positive (the
// guard disabled). It takes one synchronous sample so the level is valid
// before the first request.
func newPressureGuard(soft int64, frac float64, interval time.Duration) *pressureGuard {
	if soft <= 0 {
		return nil
	}
	if frac <= 0 || frac >= 1 {
		frac = 0.85
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	g := &pressureGuard{
		soft:      soft,
		degradeAt: int64(float64(soft) * frac),
		interval:  interval,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	g.sample()
	go g.run()
	return g
}

func (g *pressureGuard) run() {
	defer close(g.done)
	t := time.NewTicker(g.interval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.sample()
		}
	}
}

// sample reads the heap once and reclassifies. ReadMemStats briefly stops
// the world, which is why the guard samples on a ticker instead of per
// request.
func (g *pressureGuard) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc)
	g.lastHeap.Store(heap)
	lvl := pressureOK
	switch {
	case heap >= g.soft:
		lvl = pressureShed
	case heap >= g.degradeAt:
		lvl = pressureDegrade
	}
	g.level.Store(int32(lvl))
}

// close stops the sampler and waits for it to exit. Nil-safe.
func (g *pressureGuard) close() {
	if g == nil {
		return
	}
	close(g.stop)
	<-g.done
}

// pressureLevel resolves the level for one admission: fault points first
// (deterministic chaos), then the sampled level, ok when no guard runs.
func (s *Server) pressureLevel() pressureLevel {
	if fpPressureShed.Fire() {
		return pressureShed
	}
	if fpPressureDegrade.Fire() {
		return pressureDegrade
	}
	if s.pressure == nil {
		return pressureOK
	}
	return pressureLevel(s.pressure.level.Load())
}

// degradeForPressure imposes the soft planning budget of degrade pressure
// on one admission's options, unless the client already asked for a
// tighter one: the remaining headroom under the soft limit, floored at
// minPressureBudget. With no guard configured (a fault point forced the
// level) the floor itself is used, which is small enough to force the
// downgrade ladder visibly in chaos runs. admit counts the degrade.
func (s *Server) degradeForPressure(opt *repro.Options) {
	b := int64(minPressureBudget)
	if g := s.pressure; g != nil {
		if hr := g.soft - g.lastHeap.Load(); hr > b {
			b = hr
		}
	}
	if opt.MaxMemoryBytes == 0 || opt.MaxMemoryBytes > b {
		opt.MaxMemoryBytes = b
	}
}
