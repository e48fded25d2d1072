package plan

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// TestRegistryComplete pins the registry: 8 kernels, each with a working
// estimator and a run function, and 9 aliases, each resolving to a
// registered kernel without shadowing one.
func TestRegistryComplete(t *testing.T) {
	ks := Kernels()
	if len(ks) != 8 {
		t.Fatalf("registry has %d kernels, want 8", len(ks))
	}
	if len(aliases) != 9 {
		t.Fatalf("registry has %d aliases, want 9", len(aliases))
	}
	if err := checkRegistry(); err != nil {
		t.Fatal(err)
	}
	for alias, to := range aliases {
		k, ok := Lookup(alias)
		if !ok || k.Name != to {
			t.Errorf("Lookup(%q) = %v, %v; want the %s kernel", alias, k, ok, to)
		}
	}
	s := Shape{NA: 10, NB: 11, NC: 12}
	for _, k := range ks {
		if k.Run == nil {
			t.Errorf("%s: nil Run", k.Name)
		}
		if k.EstBytes == nil || k.EstBytes(s) == 0 {
			t.Errorf("%s: missing or zero EstBytes", k.Name)
		}
		if k.estCells(s) == 0 {
			t.Errorf("%s: zero estCells", k.Name)
		}
		if !k.Traceback {
			t.Errorf("%s: every registered kernel reconstructs rows", k.Name)
		}
		if _, ok := Calibration[k.RateKey]; !ok {
			t.Errorf("%s: rate key %q not in the calibration table", k.Name, k.RateKey)
		}
	}
}

// TestPlannerProperties is the testing/quick invariant suite over random
// shapes, gap models, and budgets:
//
//  1. an automatic request always lands on a kernel that supports the
//     scheme's gap model;
//  2. whenever a MaxMemoryBytes budget is set and planning succeeds, the
//     plan's EstBytes fits the budget;
//  3. the downgrade chain is monotone non-increasing in space class,
//     internally consistent (each step starts where the previous ended),
//     and ends at the planned kernel.
func TestPlannerProperties(t *testing.T) {
	prop := func(na, nb, nc uint16, budgetUnits uint32, affine, parallel, explicit bool) bool {
		shape := Shape{NA: int(na % 512), NB: int(nb % 512), NC: int(nc % 512)}
		gap := GapLinear
		if affine {
			gap = GapAffine
		}
		req := Request{Shape: shape, Gap: gap, Workers: 1}
		if parallel {
			req.Workers = 2
		}
		if explicit {
			req.Algorithm = "full"
		}
		// 0 means "no budget"; otherwise up to 256 MiB, biased small so the
		// ladder actually gets exercised.
		req.MaxMemoryBytes = int64(budgetUnits%(1<<22)) * 64

		pl, spec, err := Resolve(req)
		if err != nil {
			// Only an over-tight budget may fail, and it must say so in a
			// way 413 mapping can see.
			return req.MaxMemoryBytes > 0 && errors.Is(err, core.ErrTooLarge)
		}
		if pl.Algorithm != spec.Name {
			return false
		}
		// (1) gap-model support for automatic selection.
		if !explicit && !spec.Supports(gap) {
			return false
		}
		// (2) budget respected on success.
		if req.MaxMemoryBytes > 0 && pl.EstBytes > uint64(req.MaxMemoryBytes) {
			return false
		}
		// (3) downgrade chain shape.
		prevTo := ""
		for _, d := range pl.Downgrades {
			fromSpec, ok1 := Lookup(d.From)
			toSpec, ok2 := Lookup(d.To)
			if !ok1 || !ok2 || toSpec.Space > fromSpec.Space {
				return false
			}
			if prevTo != "" && d.From != prevTo {
				return false
			}
			// A budget step records the estimate that broke the budget.
			if !d.Forced && d.EstBytes <= d.BudgetBytes {
				return false
			}
			prevTo = d.To
		}
		if prevTo != "" && prevTo != pl.Algorithm {
			return false
		}
		// Degraded implies the plan landed on a heuristic.
		if pl.Degraded && spec.Exact {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeOverflowSaturates is the regression test for the old int-typed
// lattice guard: adversarially long sequences must saturate the uint64
// estimates instead of wrapping around to a small number that would admit
// an impossible allocation. Plan-only — nothing is allocated.
func TestShapeOverflowSaturates(t *testing.T) {
	huge := Shape{NA: math.MaxInt32, NB: math.MaxInt32, NC: math.MaxInt32}
	if got := huge.Cells(); got != math.MaxUint64 {
		t.Fatalf("Cells() = %d, want saturation at MaxUint64", got)
	}
	// Three MaxInt32 pair products sum to ~3·2^62, which still fits uint64;
	// push one axis to MaxInt64 to force PairCells through its saturation.
	if got := (Shape{NA: math.MaxInt64, NB: math.MaxInt64, NC: math.MaxInt64}).PairCells(); got != math.MaxUint64 {
		t.Fatalf("PairCells() = %d, want saturation", got)
	}

	// Without a budget the plan must carry the saturated estimates.
	pl, _, err := Resolve(Request{Shape: huge})
	if err != nil {
		t.Fatalf("Resolve(huge): %v", err)
	}
	if pl.EstCells != math.MaxUint64 || pl.EstBytes != math.MaxUint64 {
		t.Fatalf("EstCells=%d EstBytes=%d, want saturated estimates", pl.EstCells, pl.EstBytes)
	}
	if pl.EstDuration != time.Duration(math.MaxInt64) {
		t.Fatalf("EstDuration=%v, want saturation at MaxInt64 ns", pl.EstDuration)
	}

	// With a budget, no kernel fits a saturated estimate: the planner must
	// reject with ErrTooLarge — never admit via wraparound.
	_, _, err = Resolve(Request{Shape: huge, MaxMemoryBytes: 1 << 30})
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("Resolve(huge, budget) err = %v, want ErrTooLarge", err)
	}
}

// TestAutoMatchesLegacyHeuristic pins automatic selection to the decision
// table of the old resolveAlgorithm switch in tsa.go, at one worker (a wide
// batch item or a one-core host) and at two: the gap model picks the
// blocked kernel, and its linear-space sibling when the lattice exceeds
// the hard cap. The dna12 and dna96 rows are the facade's own scenarios:
// 12- and 96-residue DNA triples under the default scheme's column bound.
// A linear-gap shape past MinBoundedLen whose sweep planes fit the cap
// starts on the band, with the legacy pick as its fallback.
func TestAutoMatchesLegacyHeuristic(t *testing.T) {
	small := Shape{NA: 10, NB: 10, NC: 10}
	big := Shape{NA: 200, NB: 200, NC: 200} // full lattice ≈ 32 MiB
	dna12 := Shape{NA: 12, NB: 12, NC: 12}
	dna96 := Shape{NA: 96, NB: 96, NC: 96}
	col := core.MaxAbsColumn(scoring.DNADefault())
	cases := []struct {
		name     string
		shape    Shape
		gap      GapModel
		maxBytes int64
		want     string
		fallback string
	}{
		{"linear", small, GapLinear, 0, "parallel", ""},
		{"affine", small, GapAffine, 0, "affine-parallel", ""},
		{"capped-linear", big, GapLinear, 1 << 20, "bounded", "parallel-linear"},
		{"capped-affine", big, GapAffine, 1 << 20, "affine-linear", ""},
		{"small-linear", dna12, GapLinear, 0, "parallel", ""},
		{"small-affine", dna12, GapAffine, 0, "affine-parallel", ""},
		{"big-capped", dna96, GapLinear, 1 << 20, "parallel-linear", ""},
		{"big-affine-capped", dna96, GapAffine, 4 << 20, "affine-linear", ""},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			pl, _, err := Resolve(Request{
				Shape: tc.shape, Gap: tc.gap, Workers: workers, MaxBytes: tc.maxBytes, MaxAbsColumn: col,
			})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			if pl.Algorithm != tc.want || pl.Fallback != tc.fallback {
				t.Errorf("%s/workers=%d: planned %s (fallback %q), want %s (fallback %q)", tc.name, workers, pl.Algorithm, pl.Fallback, tc.want, tc.fallback)
			}
		}
	}
}

// TestBudgetLadder walks the full downgrade ladder on an asymmetric shape
// where each rung has a distinct footprint: lattice (full) > planes
// (linear space) > pairwise (heuristic last resort).
func TestBudgetLadder(t *testing.T) {
	// A long A against short B and C keeps the three footprint classes far
	// apart: the sweep planes span only B×C while the pairwise matrices
	// pick up the long A edge twice.
	shape := Shape{NA: 4000, NB: 64, NC: 64}
	lattice := shape.Cells() * 4      // ≈ 67.6 MB
	planes := shape.PlaneCells() * 16 // ≈ 67.6 KB
	pairs := shape.PairCells() * 12   // ≈ 6.3 MB
	if !(pairs < lattice && planes < pairs) {
		t.Fatalf("shape does not order the ladder: lattice=%d pairs=%d planes=%d", lattice, pairs, planes)
	}

	// Budget between planes and pairs: the exact linear-space kernel fits.
	pl, _, err := Resolve(Request{Shape: shape, MaxMemoryBytes: int64(planes) + 1024})
	if err != nil {
		t.Fatalf("planes budget: %v", err)
	}
	if pl.Algorithm != "parallel-linear" || pl.Degraded {
		t.Fatalf("planes budget: planned %s (degraded=%v), want parallel-linear", pl.Algorithm, pl.Degraded)
	}
	if len(pl.Downgrades) == 0 {
		t.Fatalf("planes budget: no downgrade recorded")
	}

	// Budget below even the planes: nothing exact fits; an automatic
	// request bottoms out on the degraded heuristic only if the heuristic
	// fits, which it does not here — expect ErrTooLarge.
	_, _, err = Resolve(Request{Shape: shape, MaxMemoryBytes: 1024})
	if !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("tiny budget: err = %v, want ErrTooLarge", err)
	}
}

// TestLastResortHeuristic exercises the exact→heuristic last resort on a
// shape where the pairwise matrices are the only thing that fits: a short
// A against a large B×C face keeps the lattice big and makes the pairwise
// matrices slightly cheaper than the linear-space planes.
func TestLastResortHeuristic(t *testing.T) {
	shape := Shape{NA: 60, NB: 400, NC: 400}
	lattice := shape.Cells() * 4      // ≈ 39 MB
	planes := shape.PlaneCells() * 16 // ≈ 2.57 MB
	pairs := shape.PairCells() * 12   // ≈ 2.52 MB
	if !(pairs < planes && planes < lattice) {
		t.Fatalf("shape does not order pairs<planes<lattice: %d %d %d", pairs, planes, lattice)
	}
	budget := int64(pairs) + 1024
	pl, spec, err := Resolve(Request{Shape: shape, MaxMemoryBytes: budget})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if pl.Algorithm != lastResort || spec.Exact {
		t.Fatalf("planned %s (exact=%v), want the %s last resort", pl.Algorithm, spec.Exact, lastResort)
	}
	if !pl.Degraded {
		t.Fatal("last-resort plan not marked Degraded")
	}
	if len(pl.Downgrades) < 2 {
		t.Fatalf("expected the full ladder in Downgrades, got %v", pl.Downgrades)
	}
	if pl.EstBytes > uint64(budget) {
		t.Fatalf("EstBytes %d over budget %d", pl.EstBytes, budget)
	}
}

// TestExplicitAlgorithmIdentity pins explicit requests: without a budget
// the planner never substitutes, whatever the shape, and an alias (astar
// and pruned among them) plans exactly what its canonical kernel plans.
func TestExplicitAlgorithmIdentity(t *testing.T) {
	shape := Shape{NA: 300, NB: 300, NC: 300}
	for _, k := range Kernels() {
		pl, _, err := Resolve(Request{Shape: shape, Algorithm: k.Name})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if pl.Algorithm != k.Name || len(pl.Downgrades) != 0 {
			t.Errorf("%s: planned %s with downgrades %v", k.Name, pl.Algorithm, pl.Downgrades)
		}
	}
	for alias, to := range aliases {
		pl, _, err := Resolve(Request{Shape: shape, Algorithm: alias})
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		want, _, err := Resolve(Request{Shape: shape, Algorithm: to})
		if err != nil {
			t.Fatalf("%s: %v", to, err)
		}
		if pl.Algorithm != to || !reflect.DeepEqual(pl, want) {
			t.Errorf("alias %s planned %+v, want the %s plan %+v", alias, pl, to, want)
		}
	}
	if _, _, err := Resolve(Request{Shape: shape, Algorithm: "nonsense"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestBoundedAutoSelection pins the band-first contract of automatic
// selection: a long linear-gap request plans the Carrillo–Lipman band in
// front of the dense kernel it would otherwise run, priced, sized and
// shaped by that fallback, with a band ceiling whose fill costs no more
// than the fallback's estimate; short, affine and explicit requests plan
// exactly as before.
func TestBoundedAutoSelection(t *testing.T) {
	big := Shape{NA: 300, NB: 300, NC: 300}
	for _, workers := range []int{1, 2} {
		pl, spec, err := Resolve(Request{Shape: big, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		dense, _, err := Resolve(Request{Shape: big, Workers: workers, Algorithm: "parallel"})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Algorithm != "bounded" || spec.Name != "bounded" || pl.Fallback != "parallel" {
			t.Fatalf("workers=%d: auto planned %s (fallback %q), want bounded in front of parallel", workers, pl.Algorithm, pl.Fallback)
		}
		if len(pl.Downgrades) != 0 || pl.Degraded || pl.EstEvaluatedCells != 0 {
			t.Fatalf("workers=%d: band-first plan not a clean selection: %+v", workers, pl)
		}
		if pl.Workers != dense.Workers || pl.TileDims != dense.TileDims || pl.CellWidthBits != dense.CellWidthBits ||
			pl.EstCells != dense.EstCells || pl.EstBytes != dense.EstBytes || pl.EstDuration != dense.EstDuration {
			t.Fatalf("workers=%d: band-first plan %+v not priced and shaped by its fallback %+v", workers, pl, dense)
		}
		bandCost := estDuration(pl.MaxBandCells, rateFor(kernels["bounded"], workers))
		if pl.MaxBandCells == 0 || bandCost > dense.EstDuration || pl.MaxBandCells >= big.Cells() {
			t.Fatalf("workers=%d: band ceiling %d cells (~%v) against a %v dense estimate", workers, pl.MaxBandCells, bandCost, dense.EstDuration)
		}
		if next := estDuration(pl.MaxBandCells+2, rateFor(kernels["bounded"], workers)); next <= dense.EstDuration {
			t.Fatalf("workers=%d: ceiling %d is not the largest band cheaper than the dense fill", workers, pl.MaxBandCells)
		}
	}

	// Short triples, affine schemes and explicit requests keep their plans.
	for _, req := range []Request{
		{Shape: Shape{NA: 96, NB: 300, NC: 300}, Workers: 2},
		{Shape: big, Workers: 2, Gap: GapAffine},
		{Shape: big, Workers: 2, Algorithm: "parallel"},
		{Shape: big, Workers: 2, Algorithm: "parallel-linear"},
	} {
		pl, _, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Fallback != "" || pl.MaxBandCells != 0 || pl.Algorithm == "bounded" {
			t.Fatalf("%+v planned band first: %+v", req, pl)
		}
	}
	// An explicit bounded request, by name or by the astar alias, is
	// planned at the whole lattice.
	for _, name := range []string{"bounded", "astar"} {
		pl, _, err := Resolve(Request{Shape: big, Workers: 2, Algorithm: name})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Fallback != "" || pl.EstCells != big.Cells() || pl.EstEvaluatedCells != big.Cells() {
			t.Fatalf("explicit %s plan %+v, want whole-lattice estimates and no fallback", name, pl)
		}
	}

	// Lattice priced out by the hard cap: the band runs in front of the
	// sweep planes, its ceiling and bytes inside the cap.
	capBytes := int64(24 << 20)
	pl, _, err := Resolve(Request{Shape: big, Workers: 1, MaxBytes: capBytes})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "bounded" || pl.Fallback != "parallel-linear" {
		t.Fatalf("capped request planned %s (fallback %q), want bounded in front of parallel-linear", pl.Algorithm, pl.Fallback)
	}
	if len(pl.Downgrades) != 1 {
		t.Fatalf("expected one recorded downgrade, got %v", pl.Downgrades)
	}
	if d := pl.Downgrades[0]; d.From != "parallel" || d.To != "bounded" || d.Forced ||
		d.BudgetBytes != uint64(capBytes) || d.EstBytes != big.Cells()*4 {
		t.Fatalf("downgrade %+v, want parallel→bounded, est %d over a %d budget", d, big.Cells()*4, capBytes)
	}
	if pl.EstBytes > uint64(capBytes) || bandFirstBytes(Request{Shape: big}, kernels["parallel-linear"], pl.MaxBandCells) > uint64(capBytes) {
		t.Fatalf("band-first plan needs %d bytes (band ceiling %d cells) over the %d cap", pl.EstBytes, pl.MaxBandCells, capBytes)
	}
}

// TestBoundedBudgetLadderRung checks the soft-budget rung: a full-lattice
// kernel over budget lands on the Carrillo–Lipman band — still exact,
// still preference-ordered traceback — in front of the sweep planes it
// falls back to. The rung needs triples long enough for the band and is
// only taken from a full lattice.
func TestBoundedBudgetLadderRung(t *testing.T) {
	shape := Shape{NA: 300, NB: 300, NC: 300} // lattice ≈ 109 MB
	budget := int64(32 << 20)
	pl, spec, err := Resolve(Request{Shape: shape, Algorithm: "parallel", MaxMemoryBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "bounded" || !spec.Exact || pl.Degraded || pl.Fallback != "parallel-linear" {
		t.Fatalf("ladder landed on %s (fallback %q, degraded=%v), want bounded in front of parallel-linear",
			pl.Algorithm, pl.Fallback, pl.Degraded)
	}
	if len(pl.Downgrades) != 1 {
		t.Fatalf("downgrades %v, want exactly the parallel→bounded rung", pl.Downgrades)
	}
	if d := pl.Downgrades[0]; d.From != "parallel" || d.To != "bounded" || d.Forced ||
		d.BudgetBytes != uint64(budget) || d.EstBytes != shape.Cells()*4 {
		t.Fatalf("downgrade %+v, want parallel→bounded, est %d over a %d budget", d, shape.Cells()*4, budget)
	}
	if pl.EstBytes > uint64(budget) {
		t.Fatalf("EstBytes %d over budget %d", pl.EstBytes, budget)
	}

	// Below MinBoundedLen, or from a kernel that is not a full lattice,
	// the ladder falls through to the sweep planes as before.
	for _, req := range []Request{
		{Shape: Shape{NA: 100, NB: 300, NC: 300}, Algorithm: "parallel", MaxMemoryBytes: budget},
		{Shape: shape, Algorithm: "bounded", MaxMemoryBytes: budget},
	} {
		pl, _, err := Resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Algorithm != "parallel-linear" || pl.Fallback != "" {
			t.Fatalf("%+v landed on %s (fallback %q), want parallel-linear", req, pl.Algorithm, pl.Fallback)
		}
	}
}

// TestTileDims checks tile negotiation: blocked kernels carry tile
// dimensions (cubic under an explicit BlockSize), others none.
func TestTileDims(t *testing.T) {
	shape := Shape{NA: 200, NB: 200, NC: 200}
	pl, _, err := Resolve(Request{Shape: shape, Algorithm: "parallel"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.TileDims[0] <= 0 || pl.TileDims[1] <= 0 || pl.TileDims[2] <= 0 {
		t.Fatalf("blocked kernel got no tile dims: %v", pl.TileDims)
	}
	pl, _, err = Resolve(Request{Shape: shape, Algorithm: "parallel", BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pl.TileDims != [3]int{8, 8, 8} {
		t.Fatalf("BlockSize override ignored: %v", pl.TileDims)
	}
	pl, _, err = Resolve(Request{Shape: shape, Algorithm: "parallel-linear"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.TileDims != [3]int{} {
		t.Fatalf("non-blocked kernel got tile dims: %v", pl.TileDims)
	}
}

// TestDowngradeJSON pins the wire form of a ladder step, which alignd
// serves verbatim in /v1/plan and every align response's plan.
func TestDowngradeJSON(t *testing.T) {
	pl, _, err := Resolve(Request{Shape: Shape{NA: 100, NB: 100, NC: 100}, Algorithm: "parallel", MaxMemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Downgrades []map[string]any `json:"downgrades"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Downgrades) != 1 {
		t.Fatalf("downgrades %s, want one parallel→parallel-linear step", data)
	}
	want := map[string]any{
		"from": "parallel", "to": "parallel-linear",
		"est_bytes": float64(Shape{NA: 100, NB: 100, NC: 100}.Cells() * 4), "budget_bytes": float64(1 << 20),
		"forced": false,
	}
	if !reflect.DeepEqual(wire.Downgrades[0], want) {
		t.Fatalf("downgrade JSON %v, want %v", wire.Downgrades[0], want)
	}
}

// TestRegistryCheckRejectsBadAliases: the init self-check refuses an alias
// that targets nothing or shadows a registered kernel.
func TestRegistryCheckRejectsBadAliases(t *testing.T) {
	for alias, to := range map[string]string{"gone": "no-such-kernel", "parallel-linear": "parallel"} {
		aliases[alias] = to
		err := checkRegistry()
		delete(aliases, alias)
		if err == nil {
			t.Errorf("alias %s→%s accepted", alias, to)
		}
	}
	if err := checkRegistry(); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitBoundedKernelsHaveNoFallback: an explicit bounded run, by
// name or by the astar alias, is a band-first run with no fallback, so a
// band over the hard cap returns core.ErrTooLarge instead of leaving for
// a dense kernel.
func TestExplicitBoundedKernelsHaveNoFallback(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 7)
	tr := seq.Triple{A: g.Random("A", 60), B: g.Random("B", 60), C: g.Random("C", 60)}
	for _, name := range []string{"bounded", "astar"} {
		k, _ := Lookup(name)
		aln, st, err := k.Run(context.Background(), tr, scoring.DNADefault(), core.Options{MaxBytes: 4096})
		if !errors.Is(err, core.ErrTooLarge) || aln != nil || st != nil {
			t.Errorf("%s over a 4096-byte cap: alignment %v, stats %v, err %v; want core.ErrTooLarge", name, aln, st, err)
		}
	}
}

// TestRunBandFirstCancelled: a band-first run under a cancelled context,
// automatic or an explicit bounded request (by name or the astar alias), at one and two
// workers, returns context.Canceled; refinement honours the context too,
// so a client that has gone away stops the run before its profile DPs.
func TestRunBandFirstCancelled(t *testing.T) {
	sch := scoring.DNADefault()
	tr := seq.NewGenerator(seq.DNA, 31).TripleWithLengths(140, 140, 140, seq.Uniform(0.16))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []string{"", "bounded", "astar"} {
		for _, workers := range []int{1, 2} {
			pl, _, err := Resolve(Request{Shape: Shape{NA: 140, NB: 140, NC: 140}, Algorithm: alg, Workers: workers, MaxAbsColumn: core.MaxAbsColumn(sch)})
			if err != nil {
				t.Fatal(err)
			}
			if alg == "" && pl.Fallback == "" {
				t.Fatalf("workers=%d: automatic plan %s is not band first", workers, pl.Algorithm)
			}
			aln, st, _, err := RunBandFirst(ctx, pl, tr, sch, core.Options{Workers: workers})
			if !errors.Is(err, context.Canceled) || aln != nil || st != nil {
				t.Errorf("%q workers=%d: alignment %v, stats %v, err %v; want context.Canceled", alg, workers, aln, st, err)
			}
		}
	}
}
