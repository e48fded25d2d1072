package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/msa"
	"repro/internal/resultcache"
	"repro/internal/scoring"
	"repro/internal/wavefront"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"server.overhead_ms", "ms", "lower", "latency_p50_ms (align-small-closed)"},
	{"server.json_us", "us", "lower", "latency_p50_ms (align-small-closed)"},
	{"server.coalesced_share", "ratio", "higher", "latency_p50_ms, cpu_ms_per_req (align-small-closed); 0 on align-large-closed"},
	{"server.coalesce_width", "count", "higher", "cpu_ms_per_req (align-small-closed)"},
	{"server.shed_share", "ratio", "lower", "good_ratio (all)"},
	{"probe.sketch_us", "us", "lower", "latency_p50_ms (align-small-closed)"},
	{"plan.us_per_call", "us", "lower", "latency_p50_ms (align-small-closed)"},
	{"plan.est_log_residual", "ln", "lower", "latency_p50_ms (align-large-closed), latency_p90_ms (align-repeat-cached)"},
	{"plan.share_packed", "ratio", "higher", "kernel mix on every align workload"},
	{"plan.share_bounded", "ratio", "higher", "kernel mix on every align workload"},
	{"batch.flush_ms", "ms", "lower", "latency_p50_ms (align-small-closed)"},
	{"kernel.ms_per_call", "ms", "lower", "latency_p50_ms (align-large-closed, msa-protein-family), latency_p90_ms (align-repeat-cached)"},
	{"kernel.mcells_per_s", "Mcells/s", "higher", "throughput_rps (align-large-closed, msa-protein-family)"},
	{"kernel.cpu_ms_per_call", "ms", "lower", "cpu_ms_per_req (align-large-closed)"},
	{"kernel.allocs_per_call", "count", "lower", "cpu_ms_per_req, peak_rss_mib (align-repeat-cached, align-large-closed)"},
	{"kernel.evaluated_fraction", "ratio", "lower", "latency_p90_ms (align-repeat-cached)"},
	{"wavefront.speedup", "x", "higher", "latency_p50_ms (align-large-closed)"},
	{"wavefront.steal_share", "ratio", "lower", "latency_p50_ms, cpu_ms_per_req (align-large-closed)"},
	{"wavefront.keep_share", "ratio", "higher", "latency_p50_ms, cpu_ms_per_req (align-large-closed)"},
	{"wavefront.solo_share", "ratio", "lower", "latency_p50_ms (align-small-closed)"},
	{"cache.hit_share", "ratio", "higher", "throughput_rps, cpu_ms_per_req (align-repeat-cached); 0 elsewhere"},
	{"cache.neardup_share", "ratio", "higher", "throughput_rps, cpu_ms_per_req (align-repeat-cached); 0 elsewhere"},
	{"cache.collapsed_share", "ratio", "higher", "throughput_rps, cpu_ms_per_req (align-repeat-cached); 0 elsewhere"},
	{"cache.key_us", "us", "lower", "latency_p50_ms (align-repeat-cached)"},
	{"cache.get_us", "us", "lower", "latency_p50_ms (align-repeat-cached)"},
	{"cache.nearest_us", "us", "lower", "latency_p90_ms (align-repeat-cached)"},
	{"msa.guidetree_ms", "ms", "lower", "latency_p50_ms (msa-protein-family)"},
	{"msa.refine_ms", "ms", "lower", "latency_p50_ms, quality_ratio (msa-protein-family)"},
	{"msa.align_ms", "ms", "lower", "latency_p50_ms (msa-protein-family)"},
	{"msa.batched_share", "ratio", "higher", "latency_p50_ms (msa-protein-family)"},
}

// span is one timed call the benchmark made into a layer.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`  // 0 for a root span
	Request int     `json:"request"` // input index, or -1
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// phase is the span the measured requests hang under.
	phase int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Request: req,
		StartUS: float64(start.Sub(t.t0)) / 1e3, EndUS: float64(end.Sub(t.t0)) / 1e3,
	})
	return id
}

// begin opens a span and returns its closer.
func (t *tracer) begin(name string, parent, req int) func() {
	start := time.Now()
	return func() { t.add(name, parent, req, start, time.Now()) }
}

// requestSpan records one measured request from its send time
// to its reply.
func (t *tracer) requestSpan(i int, start, end time.Time) {
	t.add("client.request", t.phase, i, start, end)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runTraced runs the workload untraced, then again with spans recorded,
// then calls each layer's public functions on the same inputs. It prints
// both passes' end-to-end metrics side by side and returns the per-layer
// metrics.
func runTraced(w *workload, o options, stdout io.Writer) (*result, error) {
	plain, err := runEndToEnd(w, o, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.phase = tr.add("run", 0, -1, tr.t0, tr.t0)
	traced, err := runEndToEnd(w, o, tr)
	if err != nil {
		return nil, err
	}
	layers, err := measureLayers(w, traced, tr)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(stdout, "%-16s %12s %12s\n", "end-to-end", "untraced", "traced")
	for _, k := range sortedKeys(plain.metrics) {
		fmt.Fprintf(stdout, "%-16s %12.4f %12.4f %s\n", k, plain.metrics[k].Value, traced.metrics[k].Value, plain.metrics[k].Unit)
	}
	for _, e := range []*endToEnd{plain, traced} {
		for _, s := range append(e.wrongs, e.failures...) {
			fmt.Fprintln(stdout, s)
		}
	}
	res := &result{
		Correct:   plain.wrong == 0 && traced.wrong == 0,
		Attempted: traced.attempted,
		Failed:    traced.attempted - traced.good,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerMetrics {
		v := layers[m.name]
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-26s %12.6g %-8s moves %s\n", m.name, v, m.unit, m.moves)
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// share returns num ÷ den, or 0 when den is 0.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// medianOf returns the median, or 0 for no values.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// statszLayers derives the counter-based layer metrics from the /statsz
// deltas over the traced pass's measured window.
func statszLayers(e *endToEnd, out map[string]float64) {
	b, a := e.before, e.after
	completed := a.Completed - b.Completed
	attempted := int64(e.attempted)
	out["server.coalesced_share"] = share(a.CoalescedRequests-b.CoalescedRequests, completed)
	out["server.coalesce_width"] = share(a.CoalescedRequests-b.CoalescedRequests, a.CoalescedBatches-b.CoalescedBatches)
	out["server.shed_share"] = share(a.Shed-b.Shed, attempted)
	out["plan.share_packed"] = share(a.PlannedPacked-b.PlannedPacked, completed)
	out["plan.share_bounded"] = share(a.PlannedBounded-b.PlannedBounded, completed)
	out["cache.hit_share"] = share(a.CacheHits-b.CacheHits, attempted)
	out["cache.neardup_share"] = share(a.CacheNearDupPatched-b.CacheNearDupPatched, attempted)
	out["cache.collapsed_share"] = share(a.CacheCollapsed-b.CacheCollapsed, attempted)
	out["msa.batched_share"] = share(a.MsaBatchedMerges-b.MsaBatchedMerges, a.MsaMerges-b.MsaMerges)
}

// layerRun holds the state of the direct-call pass.
type layerRun struct {
	tr     *tracer
	parent int
	ctx    context.Context
}

// timed runs f under a span and returns its wall time.
func (l *layerRun) timed(name string, req int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.tr.add(name, l.parent, req, start, end)
	return end.Sub(start)
}

// microUS times f reps times under one span and returns µs per call.
func (l *layerRun) microUS(name string, req, reps int, f func()) float64 {
	d := l.timed(name, req, func() {
		for i := 0; i < reps; i++ {
			f()
		}
	})
	return float64(d) / float64(time.Microsecond) / float64(reps)
}

// cpuNow is this process's user+sys CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Caps on how many distinct inputs the direct-call pass replays, so the
// traced run stays well inside its time limit.
const (
	layerTriples  = 12
	layerFamilies = 6
)

// measureLayers calls each layer's public functions with the workload's
// own inputs (alignd has exited, so nothing else competes for the cores)
// and returns every per-layer metric by name; metrics of layers the
// workload does not exercise read 0.
func measureLayers(w *workload, e *endToEnd, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	statszLayers(e, out)
	out["server.json_us"] = jsonRoundTrip(e)

	l := &layerRun{tr: tr, ctx: context.Background()}
	l.parent = tr.add("layers", 0, -1, time.Now(), time.Now())
	s := e.stream

	// Replay the inputs that reach a kernel: every measured input, except
	// on the cached workload where only fresh triples miss without a seed.
	var keep func(kind string) bool
	if w.name == "align-repeat-cached" {
		keep = func(kind string) bool { return kind == "fresh" }
	}
	kernelIDs := distinctInputs(e, keep, layerTriples)
	if w.msa {
		kernelIDs = distinctInputs(e, nil, layerFamilies)
	}
	triples := make([]repro.Triple, len(kernelIDs))
	for i, id := range kernelIDs {
		alpha := repro.DNA
		if w.msa {
			alpha = repro.Protein
		}
		q := s.inputs[id].seqs
		t, err := repro.NewTriple(q[0], q[1], q[2], alpha)
		if err != nil {
			return nil, err
		}
		triples[i] = t
	}

	// One untimed call first, so lazy set-up in this process (pools, page
	// faults) is not charged to the first timed input.
	if len(triples) > 0 {
		if _, err := repro.AlignContext(l.ctx, triples[0], repro.Options{}); err != nil {
			return nil, err
		}
	}
	var sketch, planUS []float64
	for i, t := range triples {
		sketch = append(sketch, l.microUS("repro.SketchTriple", kernelIDs[i], 20, func() { repro.SketchTriple(t) }))
		planUS = append(planUS, l.microUS("repro.PlanAlign", kernelIDs[i], 20, func() { _, _ = repro.PlanAlign(t, repro.Options{}) }))
	}
	out["probe.sketch_us"] = medianOf(sketch)
	out["plan.us_per_call"] = medianOf(planUS)

	if err := kernelLayers(l, triples, kernelIDs, out); err != nil {
		return nil, err
	}
	// The direct call is the library call alignd makes for the median
	// request, without HTTP, JSON, admission or coalescing: the kernel
	// call, the cache lookup on the cached workload (its median request is
	// a hit), and AlignMSA per family on /v1/msa.
	// The layer calls are timed raw, so the overhead is taken from the
	// uncalibrated end-to-end p50.
	p50 := e.raw["latency_p50_ms"]
	out["server.overhead_ms"] = p50 - out["kernel.ms_per_call"]

	if width := int(math.Round(out["server.coalesce_width"])); width >= 1 {
		var flush []float64
		for g := 0; g+width <= len(triples); g += width {
			items := make([]repro.BatchItem, width)
			for i := range items {
				items[i] = repro.BatchItem{Triple: triples[g+i]}
			}
			var err error
			d := l.timed("repro.AlignBatchItemsContext", kernelIDs[g], func() {
				for _, r := range repro.AlignBatchItemsContext(l.ctx, items) {
					if r.Err != nil {
						err = r.Err
					}
				}
			})
			if err != nil {
				return nil, err
			}
			flush = append(flush, ms(d))
		}
		out["batch.flush_ms"] = medianOf(flush)
	}

	if w.name == "align-repeat-cached" {
		if err := cacheLayers(l, e, out); err != nil {
			return nil, err
		}
		out["server.overhead_ms"] = p50 - (out["cache.key_us"]+out["cache.get_us"])/1e3
	}
	if w.msa {
		if err := msaLayers(l, e, kernelIDs, out); err != nil {
			return nil, err
		}
		out["server.overhead_ms"] = p50 - out["msa.align_ms"]
	}
	return out, nil
}

// distinctInputs returns up to n distinct measured inputs in send order
// whose kind passes keep (nil keeps all).
func distinctInputs(e *endToEnd, keep func(kind string) bool, n int) []int {
	seen := map[int]bool{}
	var ids []int
	for _, sm := range e.measured.samples {
		kind := e.stream.inputs[sm.input].kind
		if seen[sm.input] || (keep != nil && !keep(kind)) {
			continue
		}
		seen[sm.input] = true
		ids = append(ids, sm.input)
		if len(ids) == n {
			break
		}
	}
	return ids
}

// jsonRoundTrip is the median µs to encode and decode one measured
// request and its response with encoding/json, as alignd and the client
// each do once per request.
func jsonRoundTrip(e *endToEnd) float64 {
	var out []float64
	for i, sm := range e.measured.samples {
		if i == 200 {
			break
		}
		var req, resp any
		if sm.msa != nil {
			req, resp = e.stream.msaRequest(sm.input), sm.msa
		} else if sm.align != nil {
			req, resp = e.stream.alignRequest(sm.input), sm.align
		} else {
			continue
		}
		start := time.Now()
		b1, _ := json.Marshal(req)
		b2, _ := json.Marshal(resp)
		if sm.msa != nil {
			_ = json.Unmarshal(b1, new(client.MsaRequest))
			_ = json.Unmarshal(b2, new(client.MsaResponse))
		} else {
			_ = json.Unmarshal(b1, new(client.AlignRequest))
			_ = json.Unmarshal(b2, new(client.AlignResponse))
		}
		out = append(out, float64(time.Since(start))/float64(time.Microsecond))
	}
	return medianOf(out)
}

// kernelLayers times repro.AlignContext pinned to each input's planned
// algorithm: at the planned worker count (the kernel metrics), then at 1
// and at NumCPU workers (the wavefront speedup and scheduler shares).
func kernelLayers(l *layerRun, triples []repro.Triple, ids []int, out map[string]float64) error {
	var wall, cpu, allocs, frac, resid, w1, wn []float64
	var cells, secs float64
	var sched wavefront.SchedStats
	nproc := runtime.NumCPU()
	for i, t := range triples {
		pl, err := repro.PlanAlign(t, repro.Options{})
		if err != nil {
			return err
		}
		opt := repro.Options{Algorithm: repro.Algorithm(pl.Algorithm), Workers: pl.Workers}
		c0, m0 := cpuNow(), mallocs()
		var res *repro.Result
		d := l.timed("repro.AlignContext", ids[i], func() { res, err = repro.AlignContext(l.ctx, t, opt) })
		if err != nil {
			return err
		}
		cpu = append(cpu, ms(cpuNow()-c0))
		allocs = append(allocs, float64(mallocs()-m0))
		wall = append(wall, ms(d))
		lattice := float64(t.A.Len()+1) * float64(t.B.Len()+1) * float64(t.C.Len()+1)
		evaluated := lattice
		if res.Prune != nil {
			evaluated = float64(res.Prune.EvaluatedCells)
		}
		frac = append(frac, evaluated/lattice)
		cells += evaluated
		secs += res.Elapsed.Seconds()
		resid = append(resid, math.Abs(math.Log(float64(pl.EstDuration)/float64(res.Elapsed))))

		for _, workers := range []int{1, nproc} {
			o := opt
			o.Workers = workers
			before := wavefront.Stats()
			d := l.timed(fmt.Sprintf("repro.AlignContext/workers=%d", workers), ids[i], func() { _, err = repro.AlignContext(l.ctx, t, o) })
			if err != nil {
				return err
			}
			if workers == 1 {
				w1 = append(w1, ms(d))
				continue
			}
			wn = append(wn, ms(d))
			delta := wavefront.Stats().Sub(before)
			sched.Runs += delta.Runs
			sched.SoloRuns += delta.SoloRuns
			sched.Blocks += delta.Blocks
			sched.Keeps += delta.Keeps
			sched.Steals += delta.Steals
		}
	}
	out["kernel.ms_per_call"] = medianOf(wall)
	out["kernel.cpu_ms_per_call"] = medianOf(cpu)
	out["kernel.allocs_per_call"] = medianOf(allocs)
	out["kernel.evaluated_fraction"] = medianOf(frac)
	out["plan.est_log_residual"] = medianOf(resid)
	if secs > 0 {
		out["kernel.mcells_per_s"] = cells / secs / 1e6
	}
	if m := medianOf(wn); m > 0 {
		out["wavefront.speedup"] = medianOf(w1) / m
	}
	out["wavefront.steal_share"] = share(sched.Steals, sched.Blocks)
	out["wavefront.keep_share"] = share(sched.Keeps, sched.Blocks)
	out["wavefront.solo_share"] = share(sched.SoloRuns, sched.Runs+sched.SoloRuns)
	return nil
}

// cacheLayers times the lookups alignd makes per request: the key, a Get
// that hits, and the near-duplicate prescreen. The prescreen scans every
// cached entry, so it is timed on the cache alignd held halfway through the
// measured phase: the warm-up inputs, the pool, and every near-dup and
// fresh triple first sent in the first half, each filled with its real
// result. The inputs it is timed on are misses first sent in the second
// half.
func cacheLayers(l *layerRun, e *endToEnd, out map[string]float64) error {
	s := e.stream
	sch := scoring.DNADefault()
	cache := resultcache.New(1 << 28)
	var keyUS, getUS, nearUS []float64
	var keys []resultcache.Key
	put := func(id int) error {
		q := s.inputs[id].seqs
		t, err := repro.NewTriple(q[0], q[1], q[2], repro.DNA)
		if err != nil {
			return err
		}
		res, err := repro.AlignContext(l.ctx, t, repro.Options{})
		if err != nil {
			return err
		}
		var key resultcache.Key
		var meta resultcache.Meta
		keyUS = append(keyUS, l.microUS("resultcache.KeyFor", id, 20, func() { key, meta = resultcache.KeyFor(t, sch, "") }))
		cache.Put(key, meta, res, res.Plan.EstDuration, repro.SketchTriple(t))
		keys = append(keys, key)
		return nil
	}
	for _, reqs := range [][]request{s.warm, s.prime} {
		for _, r := range reqs {
			if err := put(r.input); err != nil {
				return err
			}
		}
	}
	half := len(e.measured.samples) / 2
	seen := map[int]bool{}
	var later []int
	for i, sm := range e.measured.samples {
		kind := s.inputs[sm.input].kind
		if seen[sm.input] || (kind != "near-dup" && kind != "fresh") {
			continue
		}
		seen[sm.input] = true
		if i >= half {
			later = append(later, sm.input)
			continue
		}
		if err := put(sm.input); err != nil {
			return err
		}
	}
	for i, k := range keys {
		getUS = append(getUS, l.microUS("resultcache.Cache.Get", i, 20, func() { cache.Get(k) }))
	}
	for _, id := range later[:min(len(later), layerTriples)] {
		q := s.inputs[id].seqs
		t, err := repro.NewTriple(q[0], q[1], q[2], repro.DNA)
		if err != nil {
			return err
		}
		_, meta := resultcache.KeyFor(t, sch, "")
		sk := repro.SketchTriple(t)
		nearUS = append(nearUS, l.microUS("resultcache.Cache.Nearest", id, 20, func() { cache.Nearest(sk, meta, 0.90) }))
	}
	out["cache.key_us"] = medianOf(keyUS)
	out["cache.get_us"] = medianOf(getUS)
	out["cache.nearest_us"] = medianOf(nearUS)
	return nil
}

// msaLayers times the progressive MSA stages on the measured families.
func msaLayers(l *layerRun, e *endToEnd, ids []int, out map[string]float64) error {
	sch := scoring.BLOSUM62()
	var tree, align, refine []float64
	for n, id := range ids {
		q := e.stream.inputs[id].seqs
		seqs := make([]*repro.Sequence, len(q))
		for i, r := range q {
			sq, err := repro.NewSequence(fmt.Sprint(i), r, repro.Protein)
			if err != nil {
				return err
			}
			seqs[i] = sq
		}
		var err error
		tree = append(tree, ms(l.timed("msa.BuildGuideTree", id, func() { _, err = msa.BuildGuideTree(seqs, repro.ProbeK) })))
		if err != nil {
			return err
		}
		var res *repro.MSAResult
		if n == 0 { // untimed warm-up, as for the kernel calls
			if _, err := repro.AlignMSA(l.ctx, seqs, repro.MSAOptions{}); err != nil {
				return err
			}
		}
		align = append(align, ms(l.timed("repro.AlignMSA", id, func() { res, err = repro.AlignMSA(l.ctx, seqs, repro.MSAOptions{}) })))
		if err != nil {
			return err
		}
		refine = append(refine, ms(l.timed("msa.RefineMultiContext", id, func() { _, err = msa.RefineMultiContext(l.ctx, res.Profile, sch, 2) })))
		if err != nil {
			return err
		}
	}
	out["msa.guidetree_ms"] = medianOf(tree)
	out["msa.align_ms"] = medianOf(align)
	out["msa.refine_ms"] = medianOf(refine)
	return nil
}
