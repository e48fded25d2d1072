// Package server implements the alignd serving layer: an HTTP JSON API
// over the three-sequence aligner with bounded admission, request
// coalescing, per-request deadlines, and graceful drain.
//
// The server is the thin front of the substrate the library already
// provides — context-aware cancellation (AlignContext), graceful
// degradation (Options.Fallback surfacing Result.Degraded), and the
// persistent process-wide worker pool shared by AlignBatchItemsContext —
// so its own job reduces to admission control and observability:
//
//   - Admission is a bounded queue. A request either takes a slot
//     immediately or is shed with 429 and a Retry-After hint; nothing
//     queues unboundedly, so the queue depth reported by /statsz is a hard
//     bound, not a high-water mark. Admitted requests then wait (bounded
//     by the queue size) for one of a fixed number of run slots.
//
//   - Concurrent small /v1/align requests are coalesced: instead of each
//     taking a run slot, they are buffered for one short tick and
//     submitted together as a single AlignBatchItemsContext call. A narrow
//     coalesced batch gets intra-triple parallelism from the pool, so
//     coalescing trades a tick of latency for much better pool utilization
//     under many-small-request load.
//
//   - Drain is cooperative: BeginDrain flips /readyz to 503 and sheds new
//     alignment work while in-flight requests — including a pending
//     coalesced flush — run to completion; Close then stops the coalescer.
//     The process exit path (signal handling, listener shutdown) belongs
//     to cmd/alignd.
//
//   - Admission is memory-aware, and one pipeline (Server.admit) serves
//     every endpoint that aligns: each request is planned (internal/plan
//     through repro.PlanAlign) before it takes a queue slot. A configured
//     MaxLatticeBytes sheds requests whose estimated lattice footprint is
//     over the cap with 413 before queueing, POST /v1/plan exposes the
//     plan itself as a dry run, and /statsz reports est_bytes_in_flight
//     and planned_downgrades so operators can see budget pressure.
//
// Endpoints: POST /v1/align, POST /v1/align/batch, POST /v1/plan,
// POST /v1/msa, POST /v1/msa/plan, GET /healthz, GET /readyz,
// GET /statsz, and /debug/pprof/*.
package server

import (
	"context"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/faultpoint"
	"repro/internal/resultcache"
	"repro/internal/wavefront"
)

// Config tunes the serving layer. The zero value serves with the defaults
// noted on each field (applied by New).
type Config struct {
	// Workers is the alignment worker-pool size shared by all requests;
	// non-positive means GOMAXPROCS. New prewarms the process-wide pool to
	// this size.
	Workers int
	// QueueDepth bounds admitted requests (waiting plus running). A request
	// arriving at a full queue is shed with 429. Default 64.
	QueueDepth int
	// MaxInFlight bounds concurrently executing alignment submissions (a
	// coalesced flush counts as one). Default: Workers.
	MaxInFlight int
	// CoalesceTick is the buffering window for coalescing small /v1/align
	// requests into one batch submission; non-positive disables coalescing
	// (cmd/alignd defaults the flag to 2ms).
	CoalesceTick time.Duration
	// CoalesceMax flushes a coalesced batch early once this many requests
	// are buffered. Default 16.
	CoalesceMax int
	// CoalesceCells is the per-request lattice-cell ceiling for coalescing;
	// requests larger than this run directly on their own run slot.
	// Default 2^24 (~256³).
	CoalesceCells int64
	// DefaultDeadline is applied to requests that set no deadline_ms;
	// 0 means no default. MaxDeadline caps any requested deadline;
	// default 30s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB); MaxSequenceLen caps
	// each sequence's residue count (default 4096); MaxBatchItems caps
	// items per /v1/align/batch (default 256).
	MaxBodyBytes   int64
	MaxSequenceLen int
	MaxBatchItems  int
	// MaxMsaSequences caps the family size per /v1/msa request (default
	// 16, hard-capped by the 64-row profile mask width).
	MaxMsaSequences int
	// MaxLatticeBytes, when positive, caps the planner-estimated lattice
	// footprint of any single alignment (each batch item counts
	// separately). Requests planning a larger allocation are shed with 413
	// *before* taking an admission slot, so an oversized request can never
	// occupy queue depth. 0 means no cap beyond the per-request MaxBytes
	// the kernels enforce.
	MaxLatticeBytes int64
	// MemSoftLimitBytes, when positive, enables the memory-pressure guard:
	// a sampler watches the process heap and, as it approaches this limit,
	// new admissions are first routed through the planner's downgrade
	// ladder (degraded 200s) and finally shed with 429 (see pressure.go).
	// 0 disables the guard.
	MemSoftLimitBytes int64
	// MemDegradeFraction is the fraction of MemSoftLimitBytes at which
	// admissions start degrading; out-of-range values mean 0.85.
	MemDegradeFraction float64
	// MemSampleInterval is the heap sampling period; non-positive means
	// 100ms.
	MemSampleInterval time.Duration
	// CacheBytes, when positive, enables the content-addressed result
	// cache (internal/resultcache) with that byte budget: identical
	// /v1/align requests are answered from the cache without taking an
	// admission slot, and concurrent identical misses collapse onto one
	// computation. 0 disables caching (the default — the cache changes
	// observable shedding behavior, so operators opt in).
	CacheBytes int64
	// CacheMinCost is the admission-by-cost floor: only results whose
	// execution plan estimated at least this duration are cached, so the
	// budget is spent on the entries that save real compute. 0 caches
	// every successful exact result.
	CacheMinCost time.Duration
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	c.Workers = wavefront.Workers(c.Workers)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = c.Workers
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = 16
	}
	if c.CoalesceCells <= 0 {
		c.CoalesceCells = 1 << 24
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSequenceLen <= 0 {
		c.MaxSequenceLen = 4096
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxMsaSequences <= 0 {
		c.MaxMsaSequences = 16
	}
	if c.MaxMsaSequences > repro.MaxMSASequences {
		c.MaxMsaSequences = repro.MaxMSASequences
	}
	return c
}

// Server is the alignd HTTP serving layer. Create with New, mount
// Handler() on an http.Server, and call BeginDrain/Close on shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	gate     *gate
	coal     *coalescer
	stats    *stats
	pressure *pressureGuard // nil when MemSoftLimitBytes is unset
	// cache is the content-addressed result cache (nil when CacheBytes is
	// unset); flight collapses concurrent identical misses onto one
	// computation.
	cache  *resultcache.Cache
	flight resultcache.Group[cacheFill]

	draining atomic.Bool
	// base outlives individual requests: coalesced batches run under it so
	// one impatient client cannot cancel its batch-mates, and it stays open
	// through drain so in-flight work completes. Close cancels it.
	base     context.Context
	stopBase context.CancelFunc
	started  time.Time
}

// New builds a Server, prewarming the shared worker pool to cfg.Workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	wavefront.Prewarm(cfg.Workers)
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		gate:     newGate(cfg.QueueDepth, cfg.MaxInFlight),
		stats:    newStats(),
		pressure: newPressureGuard(cfg.MemSoftLimitBytes, cfg.MemDegradeFraction, cfg.MemSampleInterval),
		cache:    resultcache.New(cfg.CacheBytes),
		base:     base,
		stopBase: stop,
		started:  time.Now(),
	}
	s.coal = newCoalescer(s)
	s.mux.HandleFunc("POST /v1/align", s.handleAlign)
	s.mux.HandleFunc("POST /v1/align/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/msa", s.handleMsa)
	s.mux.HandleFunc("POST /v1/msa/plan", s.handleMsaPlan)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /readyz to 503 and sheds new alignment requests with
// 503 while in-flight ones complete. It does not wait: callers drain the
// HTTP layer (http.Server.Shutdown) and then Close the server.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close flushes the coalescer, waits for its outstanding batches, and
// cancels the server's base context. Call after the HTTP layer has
// drained; in-flight handlers still waiting on coalesced results receive
// them before Close returns.
func (s *Server) Close() {
	s.draining.Store(true)
	s.coal.close()
	s.pressure.close()
	s.stopBase()
}

// Statsz is the /statsz document: queue and pool gauges plus cumulative
// request counters and ring-buffer latency quantiles.
type Statsz struct {
	UptimeS  float64 `json:"uptime_s"`
	Draining bool    `json:"draining"`

	// QueueDepth is admitted-but-not-running requests; InFlight is running
	// submissions. QueueDepth+InFlight never exceeds the configured
	// QueueDepth bound.
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`

	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	Degraded  int64 `json:"degraded"`

	CoalescedBatches  int64 `json:"coalesced_batches"`
	CoalescedRequests int64 `json:"coalesced_requests"`

	// Result-cache counters (all zero while CacheBytes is unset). Hits
	// are requests answered from the cache without touching admission;
	// Misses count cache lookups that missed (every member of a collapsed
	// flight missed individually); Fills count leader computations — the
	// kernel runs actually executed on the cached path; Collapsed counts
	// requests that piggybacked on another request's in-flight
	// computation. NearDupPatched always reads 0: alignd no longer runs
	// the near-duplicate patch-up it counted, and the field stays for the
	// benchmark's traced cache.neardup_share layer.
	CacheHits           int64 `json:"cache_hits"`
	CacheMisses         int64 `json:"cache_misses"`
	CacheFills          int64 `json:"cache_fills"`
	CacheCollapsed      int64 `json:"cache_collapsed"`
	CacheNearDupPatched int64 `json:"cache_near_dup_patched"`
	CacheEvictions      int64 `json:"cache_evictions"`
	CacheCorruptDropped int64 `json:"cache_corrupt_dropped"`
	CacheBytes          int64 `json:"cache_bytes"`
	CacheEntries        int64 `json:"cache_entries"`

	// EstBytesInFlight sums the planner-estimated lattice bytes of the
	// alignments currently executing — the budget-pressure gauge behind
	// MaxLatticeBytes sizing. PlannedDowngrades counts individual
	// downgrade steps the planner recorded across all served requests.
	EstBytesInFlight  int64 `json:"est_bytes_in_flight"`
	PlannedDowngrades int64 `json:"planned_downgrades"`
	// PlannedInt16 counts served plans whose lattice cell width was
	// negotiated down to 16 bits; PlannedPacked counts plans that selected
	// the lane-packed kernel (parallel, at any worker count). Together they
	// show how often the fast paths actually serve traffic.
	PlannedInt16  int64 `json:"planned_int16"`
	PlannedPacked int64 `json:"planned_packed"`
	// PlannedBounded counts served plans that ran the Carrillo–Lipman
	// bounded kernel (bounded, which also serves the retired astar and
	// pruned names; a band-first plan that fell back counts as its dense
	// kernel); PrunedCellsSkipped sums the
	// lattice cells those kernels never evaluated — the work the bound
	// saved across all served traffic.
	PlannedBounded     int64 `json:"planned_bounded"`
	PrunedCellsSkipped int64 `json:"pruned_cells_skipped"`

	// Progressive-MSA counters. MsaRequests counts /v1/msa requests
	// admitted to execution; MsaCompleted counts the ones answered 200;
	// MsaSequences sums their family sizes; MsaMerges counts the
	// progressive merges those runs executed; MsaBatchedMerges counts the
	// merges that fanned through a shared batch (LPT-scheduled) submission
	// rather than running serially.
	MsaRequests      int64 `json:"msa_requests"`
	MsaCompleted     int64 `json:"msa_completed"`
	MsaSequences     int64 `json:"msa_sequences"`
	MsaMerges        int64 `json:"msa_merges"`
	MsaBatchedMerges int64 `json:"msa_batched_merges"`

	// Robustness counters. PanicsContained counts panics the serving and
	// scheduling layers recovered instead of crashing (contained kernel
	// panics and flush panics); WatchdogStalls counts parallel runs the
	// wavefront watchdog cancelled; RetriesObserved counts requests that
	// arrived bearing an X-Retry-Attempt header (a client retrying);
	// MemPressureDegraded counts admissions routed through the planner's
	// downgrade ladder by the memory-pressure guard; FaultsInjected sums
	// fired fault-point hits (zero outside chaos runs).
	PanicsContained     int64 `json:"panics_contained"`
	WatchdogStalls      int64 `json:"watchdog_stalls"`
	RetriesObserved     int64 `json:"retries_observed"`
	MemPressureDegraded int64 `json:"mem_pressure_degraded"`
	FaultsInjected      int64 `json:"faults_injected"`

	// LatencyMS holds quantiles over the last 1024 latency samples. A
	// sample is the wall time of one admitted request's run step, from
	// the admission slot to its return — the run-slot wait or coalesce
	// tick plus the kernel, success or failure — or, for a cache hit, the
	// lookup that answered it. A batch or MSA request is one sample;
	// refused requests and collapsed cache-flight members add none (the
	// leader's run is the sample).
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
	} `json:"latency_ms"`

	Pool struct {
		Workers  int `json:"workers"`
		Capacity int `json:"capacity"`
	} `json:"pool"`
}

// snapshot assembles the current Statsz document.
func (s *Server) snapshot() Statsz {
	var st Statsz
	st.UptimeS = time.Since(s.started).Seconds()
	st.Draining = s.draining.Load()
	admitted, inFlight := s.gate.loads()
	st.QueueDepth = admitted - inFlight
	st.InFlight = inFlight
	st.Completed = s.stats.completed.Load()
	st.Shed = s.stats.shed.Load()
	st.Failed = s.stats.failed.Load()
	st.Degraded = s.stats.degraded.Load()
	st.CoalescedBatches = s.stats.coalescedBatches.Load()
	st.CoalescedRequests = s.stats.coalescedRequests.Load()
	cs := s.cache.Stats()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEvictions = cs.Evictions
	st.CacheCorruptDropped = cs.CorruptDropped
	st.CacheBytes = cs.Bytes
	st.CacheEntries = cs.Entries
	st.CacheFills = s.stats.cacheFills.Load()
	st.CacheCollapsed = s.stats.cacheCollapsed.Load()
	st.EstBytesInFlight = s.stats.estBytesInFlight.Load()
	st.PlannedDowngrades = s.stats.plannedDowngrades.Load()
	st.PlannedInt16 = s.stats.plannedInt16.Load()
	st.PlannedPacked = s.stats.plannedPacked.Load()
	st.PlannedBounded = s.stats.plannedBounded.Load()
	st.PrunedCellsSkipped = s.stats.prunedCellsSkipped.Load()
	st.MsaRequests = s.stats.msaRequests.Load()
	st.MsaCompleted = s.stats.msaCompleted.Load()
	st.MsaSequences = s.stats.msaSequences.Load()
	st.MsaMerges = s.stats.msaMerges.Load()
	st.MsaBatchedMerges = s.stats.msaBatchedMerges.Load()
	st.PanicsContained = s.stats.panicsContained.Load()
	st.RetriesObserved = s.stats.retriesObserved.Load()
	st.MemPressureDegraded = s.stats.memPressureDegraded.Load()
	for _, name := range faultpoint.Names() {
		_, fired := faultpoint.Stats(name)
		st.FaultsInjected += fired
	}
	p50, p90, p99 := s.stats.latency.quantiles()
	st.LatencyMS.P50 = durMS(p50)
	st.LatencyMS.P90 = durMS(p90)
	st.LatencyMS.P99 = durMS(p99)
	ws := wavefront.Stats()
	st.WatchdogStalls = ws.Stalls
	st.Pool.Workers = ws.PoolWorkers
	st.Pool.Capacity = ws.PoolCapacity
	return st
}

// durMS converts a duration to fractional milliseconds.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// resolveOptions maps wire-level knobs onto repro.Options under the
// server's caps: workers are clamped to the shared pool size, the deadline
// is defaulted and capped, and fallback defaults to on — a serving layer
// prefers a degraded answer over a timeout error unless the client opts
// out.
func (s *Server) resolveOptions(req *AlignRequest) (repro.Options, error) {
	algo, err := repro.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return repro.Options{}, &badRequestError{err.Error()}
	}
	opt := repro.Options{Algorithm: algo, Workers: s.cfg.Workers, Fallback: true}
	if req.Workers > 0 && req.Workers < s.cfg.Workers {
		opt.Workers = req.Workers
	}
	if req.Scheme != "" {
		sch, ok := repro.SchemeByName(req.Scheme)
		if !ok {
			return repro.Options{}, badRequestf("unknown scheme %q", req.Scheme)
		}
		opt.Scheme = sch
	}
	if req.MaxBytes > 0 {
		opt.MaxBytes = req.MaxBytes
	}
	if req.MaxMemoryBytes > 0 {
		opt.MaxMemoryBytes = req.MaxMemoryBytes
	}
	opt.Deadline = s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		opt.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if opt.Deadline > s.cfg.MaxDeadline {
		opt.Deadline = s.cfg.MaxDeadline
	}
	if req.Fallback != nil {
		opt.Fallback = *req.Fallback
	}
	return opt, nil
}
