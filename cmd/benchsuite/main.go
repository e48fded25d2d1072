// Command benchsuite regenerates every table and figure of the
// (reconstructed) evaluation as plain-text tables; EXPERIMENTS.md is its
// output annotated against the expected shapes. Workloads are seeded and
// identical to the ones in bench_test.go.
//
// Usage:
//
//	benchsuite                 # run everything; also writes BENCH_<rev>.json
//	benchsuite -exp f1,t3      # selected experiments
//	benchsuite -quick          # reduced sizes and repetitions
//	benchsuite -reps 5         # more repetitions per configuration
//	benchsuite -benchjson p    # force machine-readable kernel metrics to p
//	benchsuite -benchjson off  # never write kernel metrics
//	benchsuite -baseline auto  # diff kernel rates vs the newest committed BENCH_*.json
//
// BENCH_<rev>.json records per-kernel Mcells/s, allocs/op, bytes/op, and
// predicted peak lattice bytes on seeded workloads — the machine-readable
// perf-regression baseline consumed by the CI bench-smoke job. With the
// default -benchjson auto it is written only when every experiment runs.
//
// On hosts with fewer cores than a worker setting, measured wall-clock
// times stay flat while the "sim-speedup" column — the makespan of the
// exact Run3D schedule under list scheduling — carries the
// hardware-independent scaling curve (see DESIGN.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	repro "repro"

	"repro/internal/bench"
	"repro/internal/commsim"
	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/prof"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

type config struct {
	quick    bool
	reps     int
	csv      bool
	out      io.Writer
	baseline string
}

// render writes a finished table in the selected output format.
func (c config) render(t *bench.Table) error {
	if c.csv {
		return t.RenderCSV(c.out)
	}
	return t.Render(c.out)
}

type experiment struct {
	id    string
	title string
	run   func(cfg config) error
}

var experiments = []experiment{
	{"t1", "T1: sequential runtime vs length", runT1},
	{"t2", "T2: memory, full matrix vs linear space", runT2},
	{"f1", "F1: speedup vs workers", runF1},
	{"f2", "F2: parallel efficiency vs workers", runF2},
	{"f3", "F3: block-size ablation", runF3},
	{"t3", "T3: exact vs heuristic quality", runT3},
	{"t4", "T4: unequal lengths, constant volume", runT4},
	{"f5", "F5: parallel linear-space scaling", runF5},
	{"t5", "T5: affine vs linear gap model", runT5},
	{"f6", "F6: blocked vs plane-synchronized schedule", runF6},
	{"f7", "F7: simulated cluster speedup under alpha-beta communication", runF7},
	{"f8", "F8: work-stealing scheduler behaviour vs workers", runF8},
	{"f9", "F9: Carrillo-Lipman bounded search vs identity", runF9},
	{"f10", "F10: guide-tree progressive MSA, batch-fanned vs serial merges", runF10},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		expFlag   = fs.String("exp", "all", "comma-separated experiment ids (t1,t2,f1,f2,f3,t3,t4,f5,t5,f6,f7,f8,f9,f10) or 'all'")
		quick     = fs.Bool("quick", false, "reduced sizes and repetitions")
		reps      = fs.Int("reps", 3, "repetitions per configuration")
		csvOut    = fs.Bool("csv", false, "emit CSV instead of text tables")
		benchjson = fs.String("benchjson", "auto", "kernel metrics JSON: 'auto' (BENCH_<rev>.json when running all), 'off', or an explicit path")
		baseline  = fs.String("baseline", "", "committed BENCH_<rev>.json to diff kernel Mcells/s against (warns on >10% regressions, never fails); 'auto' picks the newest committed baseline")
		calibrate = fs.Bool("calibrate", false, "check the planner's calibration table against the newest committed BENCH_*.json and exit (fails on >25% drift)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("benchsuite: %w", err)
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fmt.Errorf("benchsuite: %w", err)
	}
	defer stopProf()

	cfg := config{quick: *quick, reps: *reps, csv: *csvOut, out: stdout, baseline: *baseline}
	if cfg.quick && *reps == 3 {
		cfg.reps = 1
	}
	if *calibrate {
		return runCalibrate(cfg.out)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	fmt.Fprintf(cfg.out, "benchsuite: GOMAXPROCS=%d quick=%v reps=%d\n\n", runtime.GOMAXPROCS(0), cfg.quick, cfg.reps)
	ran := 0
	for _, e := range experiments {
		if !want["all"] && !want[e.id] {
			continue
		}
		if err := e.run(cfg); err != nil {
			return fmt.Errorf("benchsuite: %s: %w", e.id, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("benchsuite: no experiment matches -exp %q", *expFlag)
	}
	path := resolveBenchJSON(*benchjson, want["all"])
	if path == "" && cfg.baseline != "" {
		// A baseline diff needs fresh kernel metrics; measure them even when
		// the -benchjson policy would not have.
		path = "BENCH_" + gitRev() + ".json"
	}
	if cfg.baseline == "auto" {
		resolved, err := resolveBaseline(path)
		if err != nil {
			return fmt.Errorf("benchsuite: -baseline auto: %w", err)
		}
		if resolved == "" {
			fmt.Fprintln(cfg.out, "\n-baseline auto: no committed BENCH_*.json found; skipping the diff")
		}
		cfg.baseline = resolved
	}
	if path != "" {
		if err := writeBenchJSON(path, cfg); err != nil {
			return fmt.Errorf("benchsuite: benchjson: %w", err)
		}
		fmt.Fprintf(cfg.out, "\nwrote kernel metrics to %s\n", path)
	}
	return nil
}

func dnaSch() *scoring.Scheme { return scoring.DNADefault() }

func triple(seed int64, n int, subRate float64) seq.Triple {
	g := seq.NewGenerator(seq.DNA, seed)
	return g.RelatedTriple(n, seq.MutationModel{
		SubstitutionRate: subRate,
		InsertionRate:    0.02,
		DeletionRate:     0.02,
	})
}

func cells(tr seq.Triple) int64 {
	return int64(tr.A.Len()+1) * int64(tr.B.Len()+1) * int64(tr.C.Len()+1)
}

func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}

func runT1(cfg config) error {
	lengths := pick(cfg.quick, []int{32, 64, 96}, []int{32, 64, 96, 128, 192, 256})
	tab := bench.NewTable("T1: sequential runtime vs length (DNA, ~70% identity)",
		"n", "cells", "full time", "full Mcells/s", "linear time", "linear/full")
	tab.Caption = "expected: cubic growth; linear-space ~1.5-2.5x slower than full"
	for _, n := range lengths {
		tr := triple(1000+int64(n), n, 0.3)
		tFull := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{Workers: 1}))
		})
		tLin := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallelLinear(context.Background(), tr, dnaSch(), core.Options{Workers: 1}))
		})
		tab.AddRowf(n, cells(tr), tFull.Mean,
			bench.CellRate(cells(tr), tFull.Mean)/1e6,
			tLin.Mean, float64(tLin.Mean)/float64(tFull.Mean))
	}
	return cfg.render(tab)
}

func runT2(cfg config) error {
	lengths := pick(cfg.quick, []int{64, 128, 256}, []int{64, 128, 256, 384, 512})
	tab := bench.NewTable("T2: lattice memory, full matrix vs linear space",
		"n", "full bytes", "linear bytes", "ratio")
	tab.Caption = "expected: full ~ 4(n+1)^3 bytes; ratio grows linearly with n"
	for _, n := range lengths {
		tr := triple(2000+int64(n), n, 0.3)
		full := core.FullMatrixBytes(tr)
		lin := core.LinearBytes(tr)
		tab.AddRowf(n, full, lin, float64(full)/float64(lin))
	}
	return cfg.render(tab)
}

func workerSweep() []int { return []int{1, 2, 4, 8, 16} }

// parallelTiles returns the tile shape core.AlignParallel picks for tr at
// w workers (int32 cells, no planner-negotiated TileDims) as an "ixjxk"
// label, and the spans it cuts each axis into. Simulated schedules built
// from these spans describe the run measured beside them; a different
// shape would make the curves diverge for scheduling, not hardware,
// reasons.
func parallelTiles(tr seq.Triple, w int) (tile string, si, sj, sk []wavefront.Span) {
	ti, tj, tk := core.AdaptiveTileDims(tr.A.Len()+1, tr.B.Len()+1, tr.C.Len()+1, w, 4)
	return fmt.Sprintf("%dx%dx%d", ti, tj, tk),
		wavefront.Partition(tr.A.Len()+1, ti),
		wavefront.Partition(tr.B.Len()+1, tj),
		wavefront.Partition(tr.C.Len()+1, tk)
}

func runF1(cfg config) error {
	n := pick(cfg.quick, 96, 160)
	tr := triple(3000, n, 0.3)
	_, s1i, s1j, s1k := parallelTiles(tr, 1)
	cost1 := wavefront.SpanCost(s1i, s1j, s1k, 1)
	sim1 := wavefront.Simulate(len(s1i), len(s1j), len(s1k), 1, cost1)
	procs := runtime.GOMAXPROCS(0)
	tab := bench.NewTable(fmt.Sprintf("F1: speedup vs workers (n=%d, adaptive tiles, GOMAXPROCS=%d)", n, procs),
		"workers", "tile", "time", "vs-full", "vs-1w", "sim-speedup")
	tab.Caption = fmt.Sprintf("expected: near-linear sim-speedup until the wavefront width saturates;\n"+
		"measured speedup (vs-full: the blocked kernel at Workers: 1; vs-1w: the\n"+
		"1-worker row of the sweep, the same measurement as the full row)\n"+
		"tracks it only up to the cores GOMAXPROCS grants\n"+
		"* = workers exceed GOMAXPROCS=%d; measured speedup is invalid there,\n"+
		"read sim-speedup for the scaling curve", procs)
	measure := func(w int) bench.Timing {
		return bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{Workers: w}))
		})
	}
	// The full baseline is the blocked kernel at Workers: 1, which is also
	// the sweep's first row: one measurement serves both.
	tFull := measure(1)
	tab.AddRowf("full", "-", tFull.Mean, "1.00 ", "", "")
	for _, w := range workerSweep() {
		tile, si, sj, sk := parallelTiles(tr, w)
		cost := wavefront.SpanCost(si, sj, sk, 1)
		t := tFull
		if w != 1 {
			t = measure(w)
		}
		sim := sim1 / wavefront.Simulate(len(si), len(sj), len(sk), w, cost)
		// The trailing space on unstarred cells keeps the columns aligned:
		// Render right-aligns only purely numeric cells.
		mark := " "
		if w > procs {
			mark = "*"
		}
		speedup := fmt.Sprintf("%.2f%s", bench.Speedup(tFull.Mean, t.Mean), mark)
		tab.AddRowf(w, tile, t.Mean, speedup, speedup, sim)
	}
	return cfg.render(tab)
}

func runF2(cfg config) error {
	lengths := pick(cfg.quick, []int{64, 96}, []int{96, 160, 224})
	tab := bench.NewTable("F2: parallel efficiency vs workers",
		"n", "workers", "time", "sim-speedup", "sim-efficiency")
	tab.Caption = "expected: efficiency decays as workers approach the wavefront width;\nlarger n sustains efficiency to higher worker counts"
	for _, n := range lengths {
		tr := triple(4000+int64(n), n, 0.3)
		_, s1i, s1j, s1k := parallelTiles(tr, 1)
		sim1 := wavefront.Simulate(len(s1i), len(s1j), len(s1k), 1, wavefront.SpanCost(s1i, s1j, s1k, 1))
		for _, w := range workerSweep() {
			t := bench.Measure(cfg.reps, func() {
				mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{Workers: w}))
			})
			_, si, sj, sk := parallelTiles(tr, w)
			sim := sim1 / wavefront.Simulate(len(si), len(sj), len(sk), w, wavefront.SpanCost(si, sj, sk, 1))
			tab.AddRowf(n, w, t.Mean, sim, sim/float64(w))
		}
	}
	return cfg.render(tab)
}

func runF3(cfg config) error {
	n := pick(cfg.quick, 96, 160)
	tr := triple(5000, n, 0.3)
	tab := bench.NewTable(fmt.Sprintf("F3: block-size ablation (n=%d, workers=GOMAXPROCS)", n),
		"block", "blocks/axis", "time", "sim-speedup(8w)")
	tab.Caption = "expected: U-shape — small tiles pay scheduling overhead, huge tiles starve the pool"
	for _, bs := range []int{4, 8, 16, 32, 64} {
		t := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{BlockSize: bs}))
		})
		si := wavefront.Partition(tr.A.Len()+1, bs)
		sj := wavefront.Partition(tr.B.Len()+1, bs)
		sk := wavefront.Partition(tr.C.Len()+1, bs)
		cost := wavefront.SpanCost(si, sj, sk, 1)
		sim := wavefront.Simulate(len(si), len(sj), len(sk), 1, cost) /
			wavefront.Simulate(len(si), len(sj), len(sk), 8, cost)
		tab.AddRowf(bs, len(si), t.Mean, sim)
	}
	return cfg.render(tab)
}

func runT3(cfg config) error {
	n := pick(cfg.quick, 60, 100)
	tab := bench.NewTable(fmt.Sprintf("T3: exact vs heuristic quality (n=%d)", n),
		"identity", "algo", "SP score", "Δ vs exact", "time")
	tab.Caption = "expected: exact >= heuristics always; heuristics orders of magnitude faster"
	for _, id := range []float64{0.5, 0.7, 0.9} {
		tr := triple(6000+int64(id*100), n, 1-id)
		var exact int32
		tExact := bench.Measure(cfg.reps, func() {
			a := mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{}))
			exact = a.Score
		})
		tab.AddRowf(fmt.Sprintf("%.0f%%", id*100), "exact", exact, 0, tExact.Mean)
		var cs int32
		tCS := bench.Measure(cfg.reps, func() {
			a := mustAlign(msa.CenterStar(tr, dnaSch()))
			cs = a.Score
		})
		tab.AddRowf("", "center-star", cs, int(cs-exact), tCS.Mean)
		var pg int32
		tPG := bench.Measure(cfg.reps, func() {
			a := mustAlign(msa.Progressive(tr, dnaSch()))
			pg = a.Score
		})
		tab.AddRowf("", "progressive", pg, int(pg-exact), tPG.Mean)
	}
	return cfg.render(tab)
}

func runT4(cfg config) error {
	shapes := pick(cfg.quick,
		[][3]int{{48, 48, 48}, {96, 48, 24}, {192, 24, 24}},
		[][3]int{{64, 64, 64}, {128, 64, 32}, {256, 64, 16}, {512, 32, 16}})
	tab := bench.NewTable("T4: unequal lengths at constant volume",
		"shape", "cells", "time", "Mcells/s")
	tab.Caption = "expected: runtime tracks the product n*m*p, so times stay roughly constant"
	for i, s := range shapes {
		g := seq.NewGenerator(seq.DNA, 8000+int64(i))
		tr := g.TripleWithLengths(s[0], s[1], s[2], seq.Uniform(0.3))
		t := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{}))
		})
		tab.AddRowf(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), cells(tr), t.Mean,
			bench.CellRate(cells(tr), t.Mean)/1e6)
	}
	return cfg.render(tab)
}

func runF5(cfg config) error {
	n := pick(cfg.quick, 96, 256)
	tr := triple(9000, n, 0.3)
	tab := bench.NewTable(fmt.Sprintf("F5: parallel linear-space scaling (n=%d)", n),
		"workers", "time", "lattice bytes", "full-matrix bytes")
	tab.Caption = "expected: linear-space parallelizes like the full matrix while using\nquadratic instead of cubic lattice memory"
	for _, w := range workerSweep() {
		t := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallelLinear(context.Background(), tr, dnaSch(), core.Options{Workers: w}))
		})
		tab.AddRowf(w, t.Mean, core.LinearBytes(tr), core.FullMatrixBytes(tr))
	}
	return cfg.render(tab)
}

func runT5(cfg config) error {
	lengths := pick(cfg.quick, []int{24, 48}, []int{32, 64, 96})
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		return err
	}
	tab := bench.NewTable("T5: affine vs linear gap model",
		"n", "linear time", "affine time", "affine-linear-space time", "affine/linear", "linear score", "affine score")
	tab.Caption = "expected: affine within the 7x-49x state/transition-work envelope;\nits linear-space variant pays ~2x more time for 7 planes instead of 7 lattices"
	for _, n := range lengths {
		tr := triple(10000+int64(n), n, 0.3)
		var linScore, affScore int32
		tLin := bench.Measure(cfg.reps, func() {
			linScore = mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{Workers: 1})).Score
		})
		tAff := bench.Measure(cfg.reps, func() {
			affScore = mustAlign(core.AlignAffineParallel(context.Background(), tr, affSch, core.Options{Workers: 1})).Score
		})
		tAffLin := bench.Measure(cfg.reps, func() {
			aln := mustAlign(core.AlignAffineLinear(context.Background(), tr, affSch, core.Options{}))
			if aln.Score != affScore {
				panic(fmt.Sprintf("affine-linear score %d != affine %d", aln.Score, affScore))
			}
		})
		tab.AddRowf(n, tLin.Mean, tAff.Mean, tAffLin.Mean, float64(tAff.Mean)/float64(tLin.Mean), linScore, affScore)
	}
	return cfg.render(tab)
}

func runF6(cfg config) error {
	lengths := pick(cfg.quick, []int{48, 96}, []int{64, 128, 192})
	tab := bench.NewTable("F6: blocked wavefront vs plane-synchronized schedule (workers=GOMAXPROCS)",
		"n", "blocked time", "diagonal time", "diagonal/blocked")
	tab.Caption = "expected: blocked tiles beat per-plane barriers, more so as n grows;\nblocked runs the lane-packed interior, diagonal the scalar cell recurrence"
	for _, n := range lengths {
		tr := triple(11000+int64(n), n, 0.3)
		tBlocked := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{}))
		})
		tDiag := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignDiagonal(context.Background(), tr, dnaSch(), core.Options{}))
		})
		tab.AddRowf(n, tBlocked.Mean, tDiag.Mean, float64(tDiag.Mean)/float64(tBlocked.Mean))
	}
	return cfg.render(tab)
}

func runF7(cfg config) error {
	n := pick(cfg.quick, 128, 512)
	bs := core.DefaultBlockSize
	si := wavefront.Partition(n+1, bs)
	sj := wavefront.Partition(n+1, bs)
	sk := wavefront.Partition(n+1, bs)
	tab := bench.NewTable(
		fmt.Sprintf("F7: simulated 2007 gigabit cluster, n=%d, block=%d (alpha=50us, beta=10ns/B, 20ns/cell)", n, bs),
		"ranks", "dist", "makespan", "speedup", "efficiency", "messages", "MB sent")
	tab.Caption = "expected: cyclic layouts sustain speedup where slabs stall on the wavefront;\nefficiency decays with ranks as faces cross the network"
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		for _, dist := range []commsim.Dist{commsim.DistSlabI, commsim.DistCyclicI, commsim.DistCyclicIJ} {
			res, err := commsim.Simulate(si, sj, sk, commsim.GigabitCluster2007(ranks), dist)
			if err != nil {
				return err
			}
			tab.AddRowf(ranks, dist.String(),
				time.Duration(res.Makespan*float64(time.Second)),
				res.Speedup(), res.Efficiency(ranks),
				res.Messages, float64(res.BytesSent)/1e6)
		}
	}
	if err := cfg.render(tab); err != nil {
		return err
	}

	// Second panel: block-size trade-off at a fixed rank count — the
	// communication-aware version of F3.
	tab2 := bench.NewTable(
		fmt.Sprintf("F7b: block-size trade-off on 8 simulated ranks (n=%d, cyclic-i)", n),
		"block", "makespan", "speedup", "messages", "MB sent")
	tab2.Caption = "expected: small blocks drown in alpha; huge blocks starve ranks — the U-shape"
	for _, b := range []int{4, 8, 16, 32, 64} {
		si := wavefront.Partition(n+1, b)
		sj := wavefront.Partition(n+1, b)
		sk := wavefront.Partition(n+1, b)
		res, err := commsim.Simulate(si, sj, sk, commsim.GigabitCluster2007(8), commsim.DistCyclicI)
		if err != nil {
			return err
		}
		tab2.AddRowf(b, time.Duration(res.Makespan*float64(time.Second)),
			res.Speedup(), res.Messages, float64(res.BytesSent)/1e6)
	}
	return cfg.render(tab2)
}

func runF8(cfg config) error {
	n := pick(cfg.quick, 96, 160)
	tr := triple(13000, n, 0.3)
	tab := bench.NewTable(fmt.Sprintf("F8: work-stealing scheduler behaviour vs workers (n=%d, adaptive tiles, GOMAXPROCS=%d)",
		n, runtime.GOMAXPROCS(0)),
		"workers", "tile", "time", "blocks", "keeps", "steals", "steal-rate")
	tab.Caption = "expected: keeps dominate (the cache-hot handoff); the steal-rate stays\n" +
		"in the low percents — stealing is the load-balancing escape hatch, not\n" +
		"the common path. Counters are per alignment; on a host with fewer\n" +
		"cores than workers the pool may fall back to solo runs (all zeros)."
	for _, w := range workerSweep() {
		tile, _, _, _ := parallelTiles(tr, w)
		var d wavefront.SchedStats
		t := bench.Measure(cfg.reps, func() {
			before := wavefront.Stats()
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{Workers: w}))
			d = wavefront.Stats().Sub(before)
		})
		stealRate := 0.0
		if d.Blocks > 0 {
			stealRate = float64(d.Steals) / float64(d.Blocks)
		}
		tab.AddRowf(w, tile, t.Mean,
			d.Blocks, d.Keeps, d.Steals, fmt.Sprintf("%.1f%%", 100*stealRate))
	}
	return cfg.render(tab)
}

func runF9(cfg config) error {
	n := pick(cfg.quick, 96, 160)
	tab := bench.NewTable(fmt.Sprintf("F9: Carrillo-Lipman bounded search vs identity (n=%d, center-star-refined seed)", n),
		"identity", "evaluated", "total", "fraction", "bounded time", "astar time", "full time")
	tab.Caption = "expected: evaluated fraction and bounded time collapse as identity rises;\n" +
		"the band beats the full fill from ~80% identity, the A* frontier joins\n" +
		"once the fraction drops into the single percents"
	for _, id := range []float64{0.6, 0.8, 0.95} {
		// seq.Uniform mutations (indel = substitution/4): the default
		// near-indel-free triple() makes the admissible band degenerate,
		// which would overstate the pruning the planner can expect.
		g := seq.NewGenerator(seq.DNA, 14000+int64(id*100))
		tr := g.RelatedTriple(n, seq.Uniform(1-id))
		seed := mustAlign(msa.CenterStarRefined(tr, dnaSch()))
		var st core.PruneStats
		tBounded := bench.Measure(cfg.reps, func() {
			_, stats, err := core.AlignBounded(context.Background(), tr, dnaSch(), core.Options{}, seed.Score)
			if err != nil {
				panic(err)
			}
			st = stats
		})
		tAStar := bench.Measure(cfg.reps, func() {
			if _, _, err := core.AlignAStar(context.Background(), tr, dnaSch(), core.Options{}, seed.Score); err != nil {
				panic(err)
			}
		})
		tFull := bench.Measure(cfg.reps, func() {
			mustAlign(core.AlignParallel(context.Background(), tr, dnaSch(), core.Options{Workers: 1}))
		})
		tab.AddRowf(fmt.Sprintf("%.0f%%", id*100), st.EvaluatedCells, st.TotalCells,
			st.Fraction(), tBounded.Mean, tAStar.Mean, tFull.Mean)
	}
	return cfg.render(tab)
}

func runF10(cfg config) error {
	counts := pick(cfg.quick, []int{4, 6}, []int{4, 6, 8, 12})
	length := 60
	tab := bench.NewTable(fmt.Sprintf("F10: guide-tree progressive MSA (%d residues/seq), batch-fanned vs serial merges", length),
		"N", "merges", "batched", "fanned time", "serial time", "serial/fanned", "score", "upper bound", "gap")
	tab.Caption = "expected: wall-clock grows roughly linearly with the ceil((N-1)/2)-per-level\n" +
		"merge count; fanning a level's independent triples through the batch LPT\n" +
		"path beats serial merges once a level holds >=2 of them; scores are\n" +
		"identical between the two modes — the fan changes scheduling, not results"
	for _, n := range counts {
		g := seq.NewGenerator(seq.DNA, 15000+int64(n))
		fam := g.RelatedFamily(n, length, seq.MutationModel{
			SubstitutionRate: 0.1,
			InsertionRate:    0.02,
			DeletionRate:     0.02,
		})
		var fanned *repro.MSAResult
		tFanned := bench.Measure(cfg.reps, func() {
			fanned = mustAlign(repro.AlignMSA(context.Background(), fam, repro.MSAOptions{}))
		})
		var serial *repro.MSAResult
		tSerial := bench.Measure(cfg.reps, func() {
			serial = mustAlign(repro.AlignMSA(context.Background(), fam, repro.MSAOptions{SerialMerges: true}))
		})
		if serial.Score != fanned.Score {
			return fmt.Errorf("f10: N=%d serial score %d != fanned score %d", n, serial.Score, fanned.Score)
		}
		tab.AddRowf(n, len(fanned.Merges), fanned.BatchedMerges, tFanned.Mean, tSerial.Mean,
			float64(tSerial.Mean)/float64(tFanned.Mean),
			fanned.Score, fanned.UpperBound, fanned.OptimalityGap)
	}
	return cfg.render(tab)
}

func mustAlign[T any](aln T, err error) T {
	if err != nil {
		panic(err)
	}
	return aln
}
