package repro

// Integration tests for the planner wiring in the root package: every
// successful Align carries the plan that drove it, MaxMemoryBytes walks
// the downgrade ladder without changing the optimal score, an unfittable
// exact request degrades to the heuristic last resort, and batch claiming
// packs largest plans first.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func planTestScheme(t *testing.T) *Scheme {
	t.Helper()
	sch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestResultCarriesPlan asserts Result.Plan is populated on the auto path
// and agrees with the algorithm that actually ran.
func TestResultCarriesPlan(t *testing.T) {
	g := NewGenerator(DNA, 11)
	tr := g.RelatedTriple(24, MutationModel{SubstitutionRate: 0.2})
	res, err := Align(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Result.Plan is nil on the auto path")
	}
	if res.Plan.Algorithm != string(res.Algorithm) {
		t.Errorf("plan says %s, result ran %s", res.Plan.Algorithm, res.Algorithm)
	}
	if res.Plan.EstCells == 0 || res.Plan.EstBytes == 0 {
		t.Errorf("plan estimates empty: %+v", res.Plan)
	}
	if len(res.Plan.Downgrades) != 0 {
		t.Errorf("unexpected downgrades without a budget: %v", res.Plan.Downgrades)
	}
}

// TestMaxMemoryBytesDowngrades squeezes a full-lattice workload under a
// budget that only linear space fits: the planner must record the
// downgrade, the run must not be Degraded (linear space is still exact),
// and the score must match the unbudgeted optimum.
func TestMaxMemoryBytesDowngrades(t *testing.T) {
	g := NewGenerator(DNA, 13)
	tr := g.RelatedTriple(64, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05})
	want, err := Align(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Align(tr, Options{MaxMemoryBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmParallelLinear {
		t.Errorf("algorithm = %s, want %s under a 128 KiB budget", res.Algorithm, AlgorithmParallelLinear)
	}
	if len(res.Plan.Downgrades) == 0 {
		t.Error("budget downgrade not recorded in the plan")
	}
	if res.Degraded {
		t.Error("linear-space downgrade must stay exact, not Degraded")
	}
	if res.Score != want.Score {
		t.Errorf("budgeted score %d != unbudgeted optimum %d", res.Score, want.Score)
	}
}

// TestMaxMemoryBytesLastResort uses an asymmetric triple whose pairwise
// faces fit a budget that no exact kernel does: the planner must land on
// the heuristic last resort and mark the result Degraded with an
// ErrTooLarge cause.
func TestMaxMemoryBytesLastResort(t *testing.T) {
	g := NewGenerator(DNA, 17)
	tr := g.TripleWithLengths(60, 400, 400, MutationModel{SubstitutionRate: 0.2})
	// Pairwise faces ≈ 2.5 MB, linear-space planes ≈ 2.6 MB: a budget
	// between the two fits only heuristics.
	res, err := Align(tr, Options{MaxMemoryBytes: 2_520_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmCenterStarRefined {
		t.Errorf("algorithm = %s, want the %s last resort", res.Algorithm, AlgorithmCenterStarRefined)
	}
	if !res.Degraded {
		t.Error("heuristic last resort must be flagged Degraded")
	}
	if !errors.Is(res.DegradedCause, ErrTooLarge) {
		t.Errorf("DegradedCause = %v, want ErrTooLarge", res.DegradedCause)
	}
	if len(res.Plan.Downgrades) < 2 {
		t.Errorf("expected the full ladder in Downgrades, got %v", res.Plan.Downgrades)
	}
}

// TestExplicitAlgorithmIgnoresSoftBudget: an explicitly requested exact
// kernel is not silently swapped; MaxBytes (the hard cap) still rejects.
func TestExplicitAlgorithmStillHardCapped(t *testing.T) {
	g := NewGenerator(DNA, 19)
	tr := g.RelatedTriple(96, MutationModel{SubstitutionRate: 0.2})
	_, err := Align(tr, Options{Algorithm: AlgorithmFull, MaxBytes: 1 << 10})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("explicit full over MaxBytes: err = %v, want ErrTooLarge", err)
	}
	if core.FullMatrixBytes(tr) <= 1<<10 {
		t.Fatal("test triple too small to exceed the cap")
	}
}

// TestPlanAlignDryRun: PlanAlign plans without aligning and matches what
// Align then executes.
func TestPlanAlignDryRun(t *testing.T) {
	g := NewGenerator(DNA, 23)
	tr := g.RelatedTriple(32, MutationModel{SubstitutionRate: 0.2})
	opt := Options{MaxMemoryBytes: 64 << 10}
	pl, err := PlanAlign(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Align(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != string(res.Algorithm) {
		t.Errorf("dry-run planned %s, Align ran %s", pl.Algorithm, res.Algorithm)
	}
	if pl.EstBytes != res.Plan.EstBytes {
		t.Errorf("dry-run EstBytes %d != executed plan %d", pl.EstBytes, res.Plan.EstBytes)
	}
}

// TestPlanOrderLargestFirst: the batch claim order visits items by
// descending planned cell count, with unplannable items last.
func TestPlanOrderLargestFirst(t *testing.T) {
	g := NewGenerator(DNA, 29)
	sch := planTestScheme(t)
	mk := func(n int) BatchItem {
		return BatchItem{Triple: g.RelatedTriple(n, MutationModel{SubstitutionRate: 0.2}), Opt: Options{Scheme: sch}}
	}
	items := []BatchItem{mk(8), mk(64), {}, mk(32)}
	order := planOrder(items, false)
	if len(order) != len(items) {
		t.Fatalf("order has %d entries, want %d", len(order), len(items))
	}
	want := []int{1, 3, 0, 2} // 64 > 32 > 8 > invalid
	for i, idx := range want {
		if order[i] != idx {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestBatchResultsCarryPlans: batch results come back in input order and
// each successful one carries its plan.
func TestBatchResultsCarryPlans(t *testing.T) {
	g := NewGenerator(DNA, 31)
	triples := []Triple{
		g.RelatedTriple(40, MutationModel{SubstitutionRate: 0.2}),
		g.RelatedTriple(10, MutationModel{SubstitutionRate: 0.2}),
		g.RelatedTriple(24, MutationModel{SubstitutionRate: 0.2}),
	}
	for i, br := range AlignBatch(triples, Options{Workers: 2}) {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
		if br.Index != i {
			t.Errorf("result %d has index %d; batch order not restored", i, br.Index)
		}
		if br.Result.Plan == nil {
			t.Errorf("item %d: missing plan", i)
		}
	}
}

// TestServedPlanShapesKeepTheirEstimates pins the plans of the request
// shapes the serving benchmark drives: coalesced 64–128 nt batch items
// (one capped into linear space), a 300 nt triple at 70% identity, a
// 300 nt bounded miss at 98% identity, and the merges of an 8-sequence
// protein family in wide (two workers) and narrow (four) batches. The
// figures are those the planner produced while full, linear and affine
// were kernels of their own; folding them into the blocked kernels may
// rename a plan, but not move its estimates. Band-first plans carry the
// estimates of the dense kernel they fall back to, so only the bounded
// miss, once priced by an identity-probe guess, moved with them.
func TestServedPlanShapesKeepTheirEstimates(t *testing.T) {
	type pin struct {
		name      string
		algorithm string
		workers   int
		cells     uint64
		bytes     uint64
		width     int
		duration  time.Duration
	}
	want := []pin{
		{"small-batch-0", "parallel", 1, 274625, 549250, 16, 206196},
		{"small-batch-1", "parallel", 1, 912673, 1825346, 16, 685261},
		// 128³ items (MinBoundedLen) start on the band and keep it. The
		// band-first plans keep their fallback's estimates: parallel's, and
		// under the 1 MiB cap parallel-linear's with the bytes a band at
		// the ceiling may take.
		{"small-batch-2", "bounded", 1, 2146689, 4293378, 16, 1611797},
		{"small-batch-3", "bounded", 1, 2146689, 859840, 32, 3234475},
		{"large", "bounded", 2, 27270901, 54541802, 16, 22546860},
		{"repeat-miss", "bounded", 2, 27270901, 54541802, 16, 22546860},
		{"msa-w2-merge0-batch2", "affine-parallel", 1, 274625, 7689500, 32, 5579540},
		{"msa-w2-merge1-batch2", "affine-parallel", 1, 274625, 7689500, 32, 5579540},
		{"msa-w2-merge3-batch1", "affine-parallel", 2, 274625, 7689500, 32, 2936600},
		{"msa-w4-merge0-batch2", "affine-parallel", 4, 274625, 7689500, 32, 1507984},
		{"msa-w4-merge1-batch2", "affine-parallel", 4, 274625, 7689500, 32, 1507984},
		{"msa-w4-merge3-batch1", "affine-parallel", 4, 274625, 7689500, 32, 1507984},
	}
	var got []pin
	add := func(name string, pl *Plan) {
		got = append(got, pin{name, pl.Algorithm, pl.Workers, pl.EstCells, pl.EstBytes, pl.CellWidthBits, pl.EstDuration})
	}

	g := NewGenerator(DNA, 101)
	var items []BatchItem
	for _, n := range []int{64, 96, 128} {
		items = append(items, BatchItem{Triple: g.RelatedTriple(n, MutationModel{SubstitutionRate: 0.1}), Opt: Options{Workers: 2}})
	}
	items = append(items, BatchItem{
		Triple: g.RelatedTriple(128, MutationModel{SubstitutionRate: 0.1}),
		Opt:    Options{Workers: 2, MaxBytes: 1 << 20},
	})
	for i, r := range AlignBatchItemsContext(context.Background(), items) {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		add(fmt.Sprintf("small-batch-%d", i), r.Result.Plan)
	}
	for _, tc := range []struct {
		name string
		tr   Triple
	}{
		{"large", NewGenerator(DNA, 103).RelatedTriple(300, MutationModel{SubstitutionRate: 0.3})},
		{"repeat-miss", NewGenerator(DNA, 107).RelatedTriple(300, MutationModel{SubstitutionRate: 0.02})},
	} {
		pl, err := PlanAlign(tc.tr, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		add(tc.name, pl)
	}
	fam := NewGenerator(Protein, 109).RelatedFamily(8, 64, MutationModel{SubstitutionRate: 0.2})
	for _, w := range []int{2, 4} {
		res, err := AlignMSA(context.Background(), fam, MSAOptions{Options: Options{Workers: w}})
		if err != nil {
			t.Fatalf("msa workers=%d: %v", w, err)
		}
		for i, m := range res.Merges {
			if m.Plan != nil {
				add(fmt.Sprintf("msa-w%d-merge%d-batch%d", w, i, m.BatchSize), m.Plan)
			}
		}
	}

	if len(got) != len(want) {
		t.Fatalf("planned %d shapes, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("plan %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
