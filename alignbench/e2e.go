package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/client"
)

// setupRepeats is how many times a run starts alignd to measure setup_s.
const setupRepeats = 61

// setupPercentile is the percentile of the starts setup_s reports. The
// starts of one run fall into two modes about 1.3 ms apart (about 2.8 and
// 4.1 ms on a 2-core VM), and the share in the slower mode changes from run
// to run, so the median of a run jumps between the modes. The 10th
// percentile stays in the fast mode and still moves with any work added to
// start-up.
const setupPercentile = 10

// endToEndUnits names every end-to-end metric with its unit. The timings
// are scaled to the reference host's speed (calib.go): setup, throughput
// and latency by the wall factor, CPU by the CPU factor.
var endToEndUnits = map[string]string{
	"setup_s":        "s",   // launch to first 200 on /readyz, setupPercentile of setupRepeats
	"throughput_rps": "1/s", // verified-good responses per second
	"latency_p50_ms": "ms",  // client-observed, send to reply
	"latency_p90_ms": "ms",
	"cpu_ms_per_req": "ms",    // alignd user+sys CPU ÷ completed requests
	"peak_rss_mib":   "MiB",   // alignd VmHWM per window, median over the second half
	"good_ratio":     "ratio", // 200, not degraded, verified ÷ attempted
	"quality_ratio":  "ratio", // Σ reference ÷ Σ score; 1 when optimal
}

// endToEnd is one untraced (or traced) pass of a workload: its metrics and
// the raw material the traced run derives layer metrics from.
type endToEnd struct {
	attempted, good, wrong int
	wrongs, failures       []string
	metrics                map[string]metric
	stream                 *stream
	measured               phase
	verdicts               []verdict
	before, after          *client.Statsz
	kinds                  map[string][]float64 // measured latencies by input kind
	algorithms             map[string]int
	gap                    float64 // mean reference − score per good request
	windowRSS              []float64
	stealPct               float64 // host CPU time stolen by other guests during the measured phase
	windowP50, windowP90   []float64
	cals                   []calibration
	wallF, cpuF            float64            // median calibration factors
	raw                    map[string]float64 // timings before calibration
}

// runEndToEnd boots alignd, sends the workload's warm-up, priming and
// measured requests, then verifies every answer outside the timed window.
// With tr set, each measured request is recorded as a span and setup is
// measured once instead of setupRepeats times.
func runEndToEnd(w *workload, o options, tr *tracer) (*endToEnd, error) {
	n := max(w.requestCount(o.seconds), minMeasured)
	s := w.build(o.seed, n)
	logPath := filepath.Join(o.out, "logs", fmt.Sprintf("alignd-%s-%d.log", w.name, o.seed))
	setupLog := filepath.Join(o.out, "logs", fmt.Sprintf("alignd-%s-%d-setup.log", w.name, o.seed))

	// Half the extra starts run before the serving one and half after the
	// measured phase, so a burst of host interference at either end moves
	// at most half of them.
	extra := setupRepeats - 1
	if tr != nil {
		extra = 0
	}
	setups, err := measureSetup(o.alignd, w.flags, setupLog, extra/2)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(o.alignd, w.flags, logPath)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	setups = append(setups, d.setup.Seconds())

	ctx := context.Background()
	dr := newDriver(w, s, d.addr)
	warm := dr.run(s.warm)
	prime := dr.run(s.prime)

	before, err := dr.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	steal0, ticks0 := stealTicks()
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	peaks, err := newPeakWindows(d, len(s.measured))
	if err != nil {
		return nil, err
	}
	// The measured requests go out one window at a time, with calibration
	// bursts before the first window and after each one, while alignd is
	// idle; alignd's CPU time is read around each window only.
	var meas phase
	var busy time.Duration
	cals := calibrateGap(nil)
	for _, win := range windows(len(s.measured)) {
		off := win[0]
		dr.onDone = func(i int, start, end time.Time) {
			if tr != nil {
				tr.requestSpan(off+i, start, end)
			}
			peaks.completed()
		}
		p := dr.run(s.measured[win[0]:win[1]])
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		busy += cpu1 - cpu0
		meas.samples = append(meas.samples, p.samples...)
		meas.wall += p.wall
		cals = calibrateGap(cals)
		if cpu0, err = d.cpuTime(); err != nil {
			return nil, err
		}
	}
	dr.onDone = nil
	steal1, ticks1 := stealTicks()
	after, err := dr.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if peaks.err != nil {
		return nil, peaks.err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("alignd exit: %w", err)
	}
	later, err := measureSetup(o.alignd, w.flags, setupLog, extra-extra/2)
	if err != nil {
		return nil, err
	}
	setups = append(setups, later...)

	// Verification runs after alignd has exited, outside every timed window.
	e := &endToEnd{
		stream: s, measured: meas, before: before, after: after,
		kinds: map[string][]float64{}, algorithms: map[string]int{},
		stealPct: 100 * share(int64(steal1-steal0), int64(ticks1-ticks0)),
	}
	v := newVerifier(s, w.msa)
	var end func()
	if tr != nil {
		end = tr.begin("verify", 0, -1)
	}
	for _, p := range []phase{warm, prime, meas} {
		if err := v.prepare(p.samples, 2); err != nil {
			return nil, fmt.Errorf("reference scores: %w", err)
		}
	}
	for _, p := range []phase{warm, prime} {
		for i := range p.samples {
			e.note(v.check(&p.samples[i]), &p.samples[i], "warm-up")
		}
	}
	e.verdicts = make([]verdict, len(meas.samples))
	var refer, score float64
	var lat []float64
	completed := 0
	for i := range meas.samples {
		sm := &meas.samples[i]
		vd := v.check(sm)
		e.verdicts[i] = vd
		e.note(vd, sm, "measured")
		e.attempted++
		if sm.status == 200 {
			completed++
		}
		l := ms(sm.latency)
		if !vd.good {
			l = math.Inf(1)
		} else {
			e.good++
			refer += float64(vd.refer)
			score += float64(vd.score)
			e.kinds[s.inputs[sm.input].kind] = append(e.kinds[s.inputs[sm.input].kind], l)
			if sm.align != nil {
				e.algorithms[sm.align.Algorithm]++
			}
		}
		lat = append(lat, l)
	}
	if end != nil {
		end()
	}
	if e.good > 0 {
		e.gap = (refer - score) / float64(e.good)
	}
	p50s, p90s, rates := windowStats(meas, e.verdicts, lat)
	e.windowP50, e.windowP90 = append([]float64(nil), p50s...), append([]float64(nil), p90s...)
	e.windowRSS = peaks.peaks
	e.raw = map[string]float64{
		"setup_s":        percentile(setups, setupPercentile),
		"throughput_rps": median(rates),
		"latency_p50_ms": median(p50s),
		"latency_p90_ms": median(p90s),
		"cpu_ms_per_req": ms(busy) / float64(max(completed, 1)),
	}
	e.cals = cals
	e.wallF, e.cpuF = calibFactors(cals)
	values := map[string]float64{
		"setup_s":        e.raw["setup_s"] / e.wallF,
		"throughput_rps": e.raw["throughput_rps"] * e.wallF,
		"latency_p50_ms": e.raw["latency_p50_ms"] / e.wallF,
		"latency_p90_ms": e.raw["latency_p90_ms"] / e.wallF,
		"cpu_ms_per_req": e.raw["cpu_ms_per_req"] / e.cpuF,
		"peak_rss_mib":   median(append([]float64(nil), peaks.peaks[len(peaks.peaks)/2:]...)),
		"good_ratio":     float64(e.good) / float64(e.attempted),
		"quality_ratio":  qualityRatio(refer, score),
	}
	e.metrics = map[string]metric{}
	for k, v := range values {
		e.metrics[k] = metric{v, endToEndUnits[k]}
	}
	return e, nil
}

// windowStats returns the p50 and p90 latency and the good-response rate
// of each window of the measured phase. Latency and throughput are medians
// of these, so one burst of interference from outside the benchmark moves
// one window, not the run. A failed request (latency +Inf) sorts after
// every success; if a percentile lands on one, it reads as the whole
// measured phase.
func windowStats(meas phase, verdicts []verdict, lat []float64) (p50s, p90s, rates []float64) {
	for _, win := range windows(len(lat)) {
		wl := append([]float64(nil), lat[win[0]:win[1]]...)
		first, last := meas.samples[win[0]].start, meas.samples[win[0]].end
		good := 0
		for i := win[0]; i < win[1]; i++ {
			sm := &meas.samples[i]
			if sm.start.Before(first) {
				first = sm.start
			}
			if sm.end.After(last) {
				last = sm.end
			}
			if verdicts[i].good {
				good++
			}
		}
		pct := func(p float64) float64 {
			v := percentile(wl, p)
			if math.IsInf(v, 1) {
				return ms(meas.wall)
			}
			return v
		}
		p50s, p90s = append(p50s, pct(50)), append(p90s, pct(90))
		rates = append(rates, float64(good)/last.Sub(first).Seconds())
	}
	return p50s, p90s, rates
}

// qualityRatio is Σ reference ÷ Σ score: 1 when every answer reaches its
// reference (the optimum for triples), above 1 by the share the MSA
// answers fall short of their upper bounds.
func qualityRatio(refer, score float64) float64 {
	if score <= 0 {
		return 0
	}
	return refer / score
}

// note records a wrong answer, and the first few failed requests.
func (e *endToEnd) note(vd verdict, sm *sample, phase string) {
	switch {
	case vd.wrong != "":
		e.wrong++
		if len(e.wrongs) < 5 {
			e.wrongs = append(e.wrongs, fmt.Sprintf("WRONG %s input %d: %s", phase, sm.input, vd.wrong))
		}
	case sm.err != nil && len(e.failures) < 5:
		e.failures = append(e.failures, fmt.Sprintf("FAILED %s input %d: %v", phase, sm.input, sm.err))
	}
}

func (e *endToEnd) result() *result {
	return &result{
		Correct:   e.wrong == 0,
		Attempted: e.attempted,
		Failed:    e.attempted - e.good,
		Metrics:   e.metrics,
	}
}

// print writes the human-readable report: every metric with its unit,
// then the context needed to read them.
func (e *endToEnd) print(w io.Writer, wl *workload) {
	for _, k := range sortedKeys(e.metrics) {
		m := e.metrics[k]
		fmt.Fprintf(w, "%-16s %12.4f %s\n", k, m.Value, m.Unit)
	}
	wins := windows(e.attempted)
	fmt.Fprintf(w, "measured: %d requests in %.2fs, %d good; %d windows, each with ≥%d beyond p90\n",
		e.attempted, e.measured.wall.Seconds(), e.good, len(wins), beyond(wins[0][1]-wins[0][0], 90))
	fmt.Fprintf(w, "%s %.2f%% of CPU time during the measured phase\n", stealPrefix, e.stealPct)
	walls, cpus := make([]float64, len(e.cals)), make([]float64, len(e.cals))
	for i, c := range e.cals {
		walls[i], cpus[i] = ms(c.wall), ms(c.cpu)
	}
	fmt.Fprintf(w, calibFormat+" (burst wall ms: %s; cpu ms: %s)\n",
		e.wallF, e.cpuF, fmtList(walls), fmtList(cpus))
	for _, k := range sortedKeys(e.raw) {
		fmt.Fprintf(w, "  %s%-16s %12.4f %s\n", uncalibratedPrefix, k, e.raw[k], endToEndUnits[k])
	}
	fmt.Fprintf(w, "window p50 ms: %s\nwindow p90 ms: %s\nwindow peak RSS MiB: %s\n",
		fmtList(e.windowP50), fmtList(e.windowP90), fmtList(e.windowRSS))
	if e.gap != 0 || wl.msa {
		fmt.Fprintf(w, "mean gap to reference: %.3f\n", e.gap)
	}
	for _, k := range sortedKeys(e.kinds) {
		l := append([]float64(nil), e.kinds[k]...)
		fmt.Fprintf(w, "  %-9s n=%-5d p50 %.3f ms  p90 %.3f ms\n", k, len(l), percentile(l, 50), percentile(l, 90))
	}
	if len(e.algorithms) > 0 {
		var parts []string
		for _, k := range sortedKeys(e.algorithms) {
			parts = append(parts, fmt.Sprintf("%s=%d", k, e.algorithms[k]))
		}
		fmt.Fprintf(w, "algorithms: %s\n", strings.Join(parts, " "))
	}
	for _, s := range append(e.wrongs, e.failures...) {
		fmt.Fprintln(w, s)
	}
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}

// peakWindows reads alignd's VmHWM each time another rssWindows-th of the
// measured requests has completed, and resets it for the next window. The
// metric is the median window peak over the second half of the run: alignd's
// RSS climbs for a while under a steady load before it levels off, and a
// spike sets the peak of the windows it lasts for, not of the run. A single
// VmHWM over the whole phase spread 0.45 over ten seeds on
// align-repeat-cached, where in about 3 seeds of 10 the planner sends one
// fresh triple to parallel-packed and its 52 MiB lattice lifts RSS by 40 to
// 100 MiB for about 4 s; this median spread 0.045 there. A spike that lasts
// fewer than half the windows does not show.
type peakWindows struct {
	d      *daemon
	mu     sync.Mutex
	done   int
	bounds []int // completion counts that close a window
	peaks  []float64
	err    error
}

// rssWindows is how many windows peak RSS is read over.
const rssWindows = 40

func newPeakWindows(d *daemon, n int) (*peakWindows, error) {
	p := &peakWindows{d: d}
	k := min(rssWindows, n)
	for i := 1; i <= k; i++ {
		p.bounds = append(p.bounds, i*n/k)
	}
	return p, d.resetPeak()
}

// completed counts one finished request.
func (p *peakWindows) completed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if len(p.peaks) == len(p.bounds) || p.done != p.bounds[len(p.peaks)] {
		return
	}
	v, err := p.d.peakRSS()
	if err == nil {
		err = p.d.resetPeak()
	}
	p.peaks = append(p.peaks, v)
	p.err = errors.Join(p.err, err)
}
