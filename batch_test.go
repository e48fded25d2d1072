package repro

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/wavefront"
)

func TestAlignBatchOrderAndScores(t *testing.T) {
	g := NewGenerator(DNA, 55)
	var triples []Triple
	for i := 0; i < 9; i++ {
		triples = append(triples, g.RelatedTriple(15+i, MutationModel{SubstitutionRate: 0.2}))
	}
	results := AlignBatch(triples, Options{Workers: 4})
	if len(results) != len(triples) {
		t.Fatalf("got %d results, want %d", len(results), len(triples))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("triple %d: %v", i, r.Err)
		}
		if r.Index != i {
			t.Fatalf("result %d has Index %d", i, r.Index)
		}
		ref, err := Align(triples[i], Options{Algorithm: AlgorithmFull})
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Score != ref.Score {
			t.Fatalf("triple %d: batch score %d != %d", i, r.Result.Score, ref.Score)
		}
	}
}

func TestAlignBatchEmpty(t *testing.T) {
	if got := AlignBatch(nil, Options{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func TestAlignBatchPartialFailure(t *testing.T) {
	good := mustTriple(t, "ACGT", "ACG", "AGT")
	bad := Triple{A: good.A, B: good.B} // missing C
	results := AlignBatch([]Triple{good, bad, good}, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good triples failed: %v %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("invalid triple did not report an error")
	}
}

func TestAlignBatchHeuristicAlgorithm(t *testing.T) {
	g := NewGenerator(DNA, 56)
	triples := []Triple{
		g.RelatedTriple(20, MutationModel{SubstitutionRate: 0.1}),
		g.RelatedTriple(25, MutationModel{SubstitutionRate: 0.1}),
	}
	results := AlignBatch(triples, Options{Algorithm: AlgorithmCenterStar, Workers: 2})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("triple %d: %v", i, r.Err)
		}
		if r.Result.Algorithm != AlgorithmCenterStar {
			t.Fatalf("triple %d ran %q", i, r.Result.Algorithm)
		}
	}
}

func TestFormatReExportsRoundTrip(t *testing.T) {
	tr := mustTriple(t, "ACGTAC", "ACGAC", "ACTAC")
	res, err := Align(tr, Options{Algorithm: AlgorithmFull})
	if err != nil {
		t.Fatal(err)
	}
	var clustal strings.Builder
	if err := WriteClustal(&clustal, res.Alignment); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clustal.String(), "CLUSTAL") {
		t.Error("clustal header missing")
	}
	var fasta strings.Builder
	if err := WriteAlignedFASTA(&fasta, res.Alignment, 60); err != nil {
		t.Fatal(err)
	}
	back, err := ParseAlignedFASTA(strings.NewReader(fasta.String()), DNA)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	if back.SPScore(sch) != res.Score {
		t.Fatalf("round trip score %d != %d", back.SPScore(sch), res.Score)
	}
}

// TestAlignBatchAffineAutoMatchesSingle is the regression test for the
// AlgorithmAuto batch bug: under an affine scheme the batch must optimize
// the same affine objective a single Align call does, not silently fall
// back to the linear-gap full matrix.
func TestAlignBatchAffineAutoMatchesSingle(t *testing.T) {
	g := NewGenerator(Protein, 77)
	var triples []Triple
	for i := 0; i < 4; i++ {
		triples = append(triples, g.RelatedTriple(10+i, MutationModel{SubstitutionRate: 0.15}))
	}
	opt := Options{Workers: 2} // Auto + protein default (BLOSUM62, affine)
	results := AlignBatch(triples, opt)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("triple %d: %v", i, r.Err)
		}
		if r.Result.Algorithm != AlgorithmAffineParallel || r.Result.Plan.Workers != 1 {
			t.Fatalf("triple %d: batch resolved Auto to %q at %d workers, want affine-parallel at 1",
				i, r.Result.Algorithm, r.Result.Plan.Workers)
		}
		ref, err := Align(triples[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Score != ref.Score {
			t.Fatalf("triple %d: batch affine score %d != single-call %d",
				i, r.Result.Score, ref.Score)
		}
	}
}

// TestAlignBatchContextCancelled: every triple in a batch under a
// cancelled context reports the context error; none is silently dropped.
func TestAlignBatchContextCancelled(t *testing.T) {
	g := NewGenerator(DNA, 78)
	var triples []Triple
	for i := 0; i < 6; i++ {
		triples = append(triples, g.RelatedTriple(15, MutationModel{SubstitutionRate: 0.1}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := AlignBatchContext(ctx, triples, Options{Workers: 3})
	if len(results) != len(triples) {
		t.Fatalf("got %d results, want %d", len(results), len(triples))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has Index %d", i, r.Index)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("triple %d: err = %v, want wrapped context.Canceled", i, r.Err)
		}
	}
}

// TestAlignRecoverContainsPanic: a panic inside one alignment becomes an
// error carrying the panic value and a stack trace.
func TestAlignRecoverContainsPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped alignRecover: %v", r)
		}
	}()
	res, err := func() (res *Result, err error) {
		defer recoverAlignPanic(&res, &err)
		panic("kernel bug")
	}()
	if res != nil || err == nil {
		t.Fatal("panic not converted to error")
	}
	if !strings.Contains(err.Error(), "kernel bug") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error lacks value or stack: %v", err)
	}
}

// TestAlignBatchNarrowUsesIntraParallelism checks the pool-sharing split:
// a batch with fewer triples than workers must route the spare capacity
// into the alignments themselves (parallel kernels on multiple workers)
// instead of serializing each triple onto one goroutine.
func TestAlignBatchNarrowUsesIntraParallelism(t *testing.T) {
	g := NewGenerator(DNA, 57)
	triples := []Triple{
		g.RelatedTriple(60, MutationModel{SubstitutionRate: 0.1}),
		g.RelatedTriple(60, MutationModel{SubstitutionRate: 0.1}),
	}
	before := wavefront.Stats()
	results := AlignBatch(triples, Options{Workers: 4})
	d := wavefront.Stats().Sub(before)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("triple %d: %v", i, r.Err)
		}
		ref, err := Align(triples[i], Options{Algorithm: AlgorithmFull})
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Score != ref.Score {
			t.Fatalf("triple %d: batch score %d != %d", i, r.Result.Score, ref.Score)
		}
	}
	// Each narrow-batch triple must have entered the block scheduler (as a
	// stealing run or, if the pool was briefly saturated, a solo fallback) —
	// the old behavior ran zero wavefront runs because inner Workers was
	// pinned to 1 and Auto resolved to the sequential kernel.
	if d.Runs+d.SoloRuns < int64(len(triples)) {
		t.Fatalf("narrow batch entered the wavefront scheduler %d+%d times, want >= %d",
			d.Runs, d.SoloRuns, len(triples))
	}
}

// TestAlignBatchWideStaysSequential checks the other side of the split: a
// batch at least as wide as the worker count keeps inner alignments
// single-threaded (throughput mode).
func TestAlignBatchWideStaysSequential(t *testing.T) {
	g := NewGenerator(DNA, 58)
	var triples []Triple
	for i := 0; i < 6; i++ {
		triples = append(triples, g.RelatedTriple(20, MutationModel{SubstitutionRate: 0.1}))
	}
	before := wavefront.Stats()
	results := AlignBatch(triples, Options{Workers: 2})
	d := wavefront.Stats().Sub(before)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("triple %d: %v", i, r.Err)
		}
	}
	if d.Runs+d.SoloRuns != 0 {
		t.Fatalf("wide batch entered the wavefront block scheduler %d+%d times, want 0",
			d.Runs, d.SoloRuns)
	}
}
