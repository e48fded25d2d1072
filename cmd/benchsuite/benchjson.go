package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/plan"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// Machine-readable kernel metrics: BENCH_<rev>.json is the perf-regression
// baseline the CI bench-smoke job archives. Each entry reports the cell
// rate, per-operation allocation profile, and predicted peak lattice bytes
// of one alignment kernel on a fixed seeded workload, so two revisions can
// be diffed without re-parsing text tables.

// kernelMetric is one kernel's measurement. The scheduler fields are only
// populated for kernels that go through the wavefront block scheduler:
// Steals/Keeps are per-operation work-stealing counts and TileDims the
// adaptive tile shape the kernel resolved for its lattice.
type kernelMetric struct {
	Kernel           string  `json:"kernel"`
	N                int     `json:"n"`
	Cells            int64   `json:"cells"`
	NsPerOp          int64   `json:"ns_per_op"`
	McellsPerS       float64 `json:"mcells_per_s"`
	AllocsPerOp      uint64  `json:"allocs_per_op"`
	BytesPerOp       uint64  `json:"bytes_per_op"`
	PeakLatticeBytes int64   `json:"peak_lattice_bytes"`
	Steals           int64   `json:"steals,omitempty"`
	Keeps            int64   `json:"keeps,omitempty"`
	TileDims         string  `json:"tile_dims,omitempty"`
	// EvaluatedFraction is the measured fraction of lattice cells a
	// Carrillo–Lipman bounded-search kernel evaluated on its workload;
	// zero for full-lattice kernels. Note the Cells convention: the
	// calibration rows ("bounded", "astar") report Cells = evaluated cells
	// (so McellsPerS is the honest per-evaluated-cell rate the planner
	// calibrates against), while the similarity-sweep rows
	// ("bounded-idNN") report Cells = the whole lattice (so McellsPerS is
	// the effective throughput comparable to the "full-packed" row).
	EvaluatedFraction float64 `json:"evaluated_fraction,omitempty"`
}

// benchReport is the top-level BENCH_<rev>.json document. The host fields
// (num_cpu, avx2, cpu) identify the machine the rates were taken on;
// reports written before they existed parse with them empty.
type benchReport struct {
	Rev        string         `json:"rev"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu,omitempty"`
	AVX2       bool           `json:"avx2"`
	CPU        string         `json:"cpu,omitempty"`
	Quick      bool           `json:"quick"`
	Reps       int            `json:"reps"`
	Kernels    []kernelMetric `json:"kernels"`
}

// stampHost fills the report's host fields: the CPU count, and the model
// name and AVX2 flag from /proc/cpuinfo ("unknown" and false where that
// file does not exist).
func (r *benchReport) stampHost() {
	r.NumCPU = runtime.NumCPU()
	r.CPU = "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			r.CPU = strings.TrimSpace(v)
		case "flags":
			r.AVX2 = strings.Contains(" "+v+" ", " avx2 ")
		}
	}
}

// host renders the report's host fields on one line; a report written
// before they existed reads "unrecorded".
func (r benchReport) host() string {
	if r.NumCPU == 0 {
		return fmt.Sprintf("unrecorded (gomaxprocs=%d go=%s)", r.GOMAXPROCS, r.GoVersion)
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d avx2=%t go=%s cpu=%q",
		r.NumCPU, r.GOMAXPROCS, r.AVX2, r.GoVersion, r.CPU)
}

// gitRev is the short commit hash used in the default output name, or "dev"
// outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	if rev := strings.TrimSpace(string(out)); rev != "" {
		return rev
	}
	return "dev"
}

// resolveBaseline maps -baseline auto to the newest committed
// BENCH_<rev>.json: candidates come from git's tracked files (so a
// freshly-written BENCH_ci.json never shadows the committed baseline),
// ranked by last-commit time. When commit times are unavailable — a
// shallow CI checkout whose truncated history predates the baseline
// commit, or no git at all — it falls back to the newest tracked (or, off
// git entirely, globbed) file by mtime, excluding outPath. An empty
// result with nil error means "no baseline exists; skip the diff".
func resolveBaseline(outPath string) (string, error) {
	candidates := gitTrackedBaselines()
	if candidates == nil {
		var err error
		candidates, err = filepath.Glob("BENCH_*.json")
		if err != nil {
			return "", err
		}
	}
	best, bestTime := "", int64(-1)
	for _, c := range candidates {
		if sameFile(c, outPath) {
			continue
		}
		t := gitCommitUnix(c)
		if t < 0 {
			if fi, err := os.Stat(c); err == nil {
				t = fi.ModTime().Unix()
			} else {
				continue
			}
		}
		if t > bestTime {
			best, bestTime = c, t
		}
	}
	return best, nil
}

// gitTrackedBaselines lists committed BENCH_*.json files, or nil when git
// is unavailable.
func gitTrackedBaselines() []string {
	out, err := exec.Command("git", "ls-files", "--", "BENCH_*.json").Output()
	if err != nil {
		return nil
	}
	return strings.Fields(string(out))
}

// gitCommitUnix returns the unix time of path's last commit, or -1.
func gitCommitUnix(path string) int64 {
	out, err := exec.Command("git", "log", "-1", "--format=%ct", "--", path).Output()
	if err != nil {
		return -1
	}
	t, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return -1
	}
	return t
}

// sameFile reports whether two paths name the same file lexically (after
// cleaning); baseline resolution only needs to exclude the file it is
// about to write.
func sameFile(a, b string) bool {
	return b != "" && filepath.Clean(a) == filepath.Clean(b)
}

// resolveBenchJSON maps the -benchjson flag to an output path: "off"
// disables, "auto" writes BENCH_<rev>.json only when the whole suite runs,
// and anything else is an explicit path that always triggers emission.
func resolveBenchJSON(flagVal string, allExperiments bool) string {
	switch flagVal {
	case "off":
		return ""
	case "auto":
		if allExperiments {
			return "BENCH_" + gitRev() + ".json"
		}
		return ""
	default:
		return flagVal
	}
}

// measureKernel times reps runs of f after one warm-up and reports the mean
// latency plus the per-run heap allocation profile.
func measureKernel(reps int, f func()) (mean time.Duration, bytesPerOp, allocsPerOp uint64) {
	if reps < 1 {
		reps = 1
	}
	f() // warm-up: page in lattices, populate the buffer arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed / time.Duration(reps),
		(after.TotalAlloc - before.TotalAlloc) / uint64(reps),
		(after.Mallocs - before.Mallocs) / uint64(reps)
}

// writeBenchJSON measures every kernel on seeded workloads and writes the
// report to path.
func writeBenchJSON(path string, cfg config) error {
	ctx := context.Background()
	sch := dnaSch()
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		return err
	}
	n := pick(cfg.quick, 48, 96)
	nAff := pick(cfg.quick, 24, 48)
	tr := triple(12000, n, 0.3)
	trAff := triple(12000, nAff, 0.3)
	nPair := pick(cfg.quick, 256, 512)
	g := seq.NewGenerator(seq.DNA, 12001)
	pa := g.Random("A", nPair).Codes()
	pb := g.Random("B", nPair).Codes()

	pairCells := int64(nPair+1) * int64(nPair+1)
	lattice := func(t seq.Triple) int64 { return core.FullMatrixBytes(t) }

	// Bounded-search workloads: the calibration rows run at 80% identity
	// (the regime the planner targets); the sweep rows cover 60/80/95%.
	// Mutations follow seq.Uniform (indel rate = substitution/4) so the
	// admissible band has realistic width — the near-indel-free default
	// workload makes it degenerate, and the per-evaluated-cell rate would
	// measure the O(n²) projection overhead instead of the band fill.
	// Evaluated-cell counts are measured up front with one seeded run so
	// each row can carry its fraction and the calibration rows can report
	// Cells = evaluated.
	nB := pick(cfg.quick, 96, 160)
	type boundedLoad struct {
		tr    seq.Triple
		seed  int32
		stats core.PruneStats
	}
	boundedFor := func(genSeed int64, subRate float64) (boundedLoad, error) {
		g := seq.NewGenerator(seq.DNA, genSeed)
		t := g.RelatedTriple(nB, seq.Uniform(subRate))
		s, err := msa.CenterStarRefined(t, sch)
		if err != nil {
			return boundedLoad{}, err
		}
		_, st, err := core.AlignBounded(ctx, t, sch, core.Options{}, s.Score)
		if err != nil {
			return boundedLoad{}, err
		}
		return boundedLoad{tr: t, seed: s.Score, stats: st}, nil
	}
	b60, err := boundedFor(14060, 0.4)
	if err != nil {
		return err
	}
	b80, err := boundedFor(14080, 0.2)
	if err != nil {
		return err
	}
	b95, err := boundedFor(14095, 0.05)
	if err != nil {
		return err
	}
	_, stA60, err := core.AlignAStar(ctx, b60.tr, sch, core.Options{}, b60.seed)
	if err != nil {
		return err
	}
	// The sweep rows time a whole bounded request as the planner runs it:
	// the center-star-refined seed and the band fill, sharing one set of
	// pairwise forward planes.
	boundedSpec, ok := plan.Lookup("bounded")
	if !ok {
		return fmt.Errorf("benchsuite: no bounded kernel registered")
	}
	runBoundedRow := func(l boundedLoad) func() {
		return func() {
			if _, _, err := boundedSpec.Run(ctx, l.tr, sch, core.Options{}); err != nil {
				panic(err)
			}
		}
	}

	kernels := []struct {
		name  string
		n     int
		peak  int64
		run   func()
		cells int64
		frac  float64 // evaluated fraction (bounded-search rows only)
		sched bool    // goes through the wavefront block scheduler
	}{
		// The blocked kernel runs the lane-packed interior; the rows keep
		// the -packed names they were first measured under, which are also
		// the planner's rate keys for it: full-packed at one worker (the
		// sequential fill), parallel-packed at GOMAXPROCS. The linear and
		// affine7 rows time their kernels at one worker too.
		{"full-packed", n, lattice(tr), func() {
			mustAlign(core.AlignParallel(ctx, tr, sch, core.Options{Workers: 1}))
		}, cells(tr), 0, false},
		{"full-packed-w16", n, lattice(tr) / 2, func() {
			mustAlign(core.AlignParallel(ctx, tr, sch, core.Options{Workers: 1, CellWidth: 16}))
		}, cells(tr), 0, false},
		{"parallel-packed", n, lattice(tr), func() {
			mustAlign(core.AlignParallel(ctx, tr, sch, core.Options{}))
		}, cells(tr), 0, true},
		{"parallel-packed-w16", n, lattice(tr) / 2, func() {
			mustAlign(core.AlignParallel(ctx, tr, sch, core.Options{CellWidth: 16}))
		}, cells(tr), 0, true},
		{"score", n, 2 * int64(tr.B.Len()+1) * int64(tr.C.Len()+1) * 4, func() {
			if _, err := core.Score(ctx, tr, sch, core.Options{}); err != nil {
				panic(err)
			}
		}, cells(tr), 0, false},
		{"linear", n, core.LinearBytes(tr), func() {
			mustAlign(core.AlignParallelLinear(ctx, tr, sch, core.Options{Workers: 1}))
		}, cells(tr), 0, false},
		{"affine7", nAff, 7 * lattice(trAff), func() {
			mustAlign(core.AlignAffineParallel(ctx, trAff, affSch, core.Options{Workers: 1}))
		}, cells(trAff), 0, false},
		{"pairwise-global", nPair, pairCells * 4, func() {
			pairwise.Global(pa, pb, sch)
		}, pairCells, 0, false},
		{"pairwise-gotoh", nPair, 3 * pairCells * 4, func() {
			pairwise.GlobalAffine(pa, pb, affSch)
		}, pairCells, 0, false},
		// Calibration rows: Cells = evaluated cells, so McellsPerS is the
		// per-evaluated-cell rate plan.Calibration["bounded"/"astar"] pins.
		// The seed score is precomputed and the workload is the 60%-identity
		// triple: that band is wide enough that band fill dominates the
		// O(n²) projection planes, so the measured rate is the asymptotic
		// per-cell cost a cells/rate model can extrapolate. (At 80-95%
		// identity the band is a few thousand cells and the "rate" would
		// just be plane time divided by a near-zero cell count.)
		{"bounded", nB, b60.stats.EvaluatedCells * 4, func() {
			if _, _, err := core.AlignBounded(ctx, b60.tr, sch, core.Options{}, b60.seed); err != nil {
				panic(err)
			}
		}, b60.stats.EvaluatedCells, b60.stats.Fraction(), false},
		{"astar", nB, stA60.EvaluatedCells * 64, func() {
			if _, _, err := core.AlignAStar(ctx, b60.tr, sch, core.Options{}, b60.seed); err != nil {
				panic(err)
			}
		}, stA60.EvaluatedCells, stA60.Fraction(), false},
		// Similarity sweep: Cells = whole lattice, so McellsPerS is the
		// effective throughput comparable to a dense fill. CI asserts the
		// 80%-identity row beats "full-packed-id80" — the full kernel on
		// the same triple, so both rates come from one lattice size — and
		// evaluates ≤25% of the lattice.
		{"bounded-id60", nB, b60.stats.EvaluatedCells * 4, runBoundedRow(b60),
			b60.stats.TotalCells, b60.stats.Fraction(), false},
		{"bounded-id80", nB, b80.stats.EvaluatedCells * 4, runBoundedRow(b80),
			b80.stats.TotalCells, b80.stats.Fraction(), false},
		{"bounded-id95", nB, b95.stats.EvaluatedCells * 4, runBoundedRow(b95),
			b95.stats.TotalCells, b95.stats.Fraction(), false},
		{"full-packed-id80", nB, lattice(b80.tr), func() {
			mustAlign(core.AlignParallel(ctx, b80.tr, sch, core.Options{Workers: 1}))
		}, b80.stats.TotalCells, 0, false},
	}

	rep := benchReport{
		Rev:        gitRev(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      cfg.quick,
		Reps:       cfg.reps,
	}
	rep.stampHost()
	for _, k := range kernels {
		before := wavefront.Stats()
		mean, bytesPerOp, allocsPerOp := measureKernel(cfg.reps, k.run)
		m := kernelMetric{
			Kernel:            k.name,
			N:                 k.n,
			Cells:             k.cells,
			NsPerOp:           mean.Nanoseconds(),
			AllocsPerOp:       allocsPerOp,
			BytesPerOp:        bytesPerOp,
			PeakLatticeBytes:  k.peak,
			EvaluatedFraction: k.frac,
		}
		if mean > 0 {
			m.McellsPerS = float64(k.cells) / mean.Seconds() / 1e6
		}
		if k.sched {
			// Per-operation scheduler work (measureKernel runs reps+1 ops
			// including the warm-up) and the tile shape the kernel resolved.
			d := wavefront.Stats().Sub(before)
			ops := int64(cfg.reps) + 1
			m.Steals = d.Steals / ops
			m.Keeps = d.Keeps / ops
			ti, tj, tk := core.AdaptiveTileDims(k.n+1, k.n+1, k.n+1, runtime.GOMAXPROCS(0), 4)
			m.TileDims = fmt.Sprintf("%dx%dx%d", ti, tj, tk)
		}
		rep.Kernels = append(rep.Kernels, m)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if cfg.baseline != "" {
		if err := diffBaseline(cfg.out, cfg.baseline, rep); err != nil {
			return err
		}
	}
	return nil
}

// regressionThreshold is the Mcells/s drop (relative to the committed
// baseline) past which diffBaseline warns.
const regressionThreshold = 0.10

// diffBaseline compares the just-measured kernel rates against a committed
// BENCH_<rev>.json and prints a per-kernel delta table. Regressions beyond
// regressionThreshold are flagged with "REGRESSION" but never fail the run:
// CI hosts are noisy, so the signal is a loud warning in the job log, not a
// red build.
func diffBaseline(out io.Writer, path string, cur benchReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	baseline := make(map[string]kernelMetric, len(base.Kernels))
	for _, k := range base.Kernels {
		baseline[k.Kernel] = k
	}
	fmt.Fprintf(out, "\nbaseline diff vs %s (rev %s):\n", path, base.Rev)
	fmt.Fprintf(out, "  baseline host: %s\n  current host:  %s\n", base.host(), cur.host())
	if base.NumCPU != 0 && base.host() != cur.host() {
		fmt.Fprintln(out, "  note: the hosts differ; the deltas compare unlike machines")
	}
	regressions := 0
	for _, k := range cur.Kernels {
		b, ok := baseline[k.Kernel]
		if !ok || b.McellsPerS <= 0 || k.McellsPerS <= 0 {
			fmt.Fprintf(out, "  %-16s %8.2f Mcells/s  (no baseline)\n", k.Kernel, k.McellsPerS)
			continue
		}
		delta := k.McellsPerS/b.McellsPerS - 1
		mark := ""
		if delta < -regressionThreshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(out, "  %-16s %8.2f Mcells/s  baseline %8.2f  %+6.1f%%%s\n",
			k.Kernel, k.McellsPerS, b.McellsPerS, 100*delta, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(out, "warning: %d kernel(s) regressed more than %.0f%% vs %s\n",
			regressions, 100*regressionThreshold, path)
	}
	return nil
}
