package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestTrivialAlignmentValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tr := randomTriple(rng, rng.Intn(10), rng.Intn(10), rng.Intn(10))
		aln, err := TrivialAlignment(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, aln, dnaSch)
		opt, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aln.Score > opt.Score {
			t.Fatalf("trivial score %d exceeds optimum %d", aln.Score, opt.Score)
		}
	}
}

// The "pruned" and "pruned-parallel" algorithm names now run the
// Carrillo–Lipman band (AlignBounded), so the guarantees the dense pruned
// fill used to carry are asserted of the band kernel: the optimum is kept,
// a tighter bound shrinks the evaluated region, a weaker caller bound
// never loosens the built-in one, and the parallel fill is deterministic.

func TestAlignPrunedPreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			tr = randomTriple(rng, 5+rng.Intn(20), 5+rng.Intn(20), 5+rng.Intn(20))
		} else {
			tr = relatedTriple(rng.Int63(), 10+rng.Intn(20), 0.15)
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		aln, stats, err := AlignBounded(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAlignment(t, aln, dnaSch)
		if aln.Score != ref.Score {
			t.Fatalf("trial %d: band %d != full %d", trial, aln.Score, ref.Score)
		}
		if stats.EvaluatedCells > stats.TotalCells || stats.EvaluatedCells <= 0 {
			t.Fatalf("trial %d: nonsensical stats %+v", trial, stats)
		}
		if stats.Optimum != ref.Score {
			t.Fatalf("trial %d: stats.Optimum = %d, want %d", trial, stats.Optimum, ref.Score)
		}
	}
}

func TestAlignPrunedTighterBoundPrunesMore(t *testing.T) {
	tr := relatedTriple(9, 50, 0.1)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, loose, err := AlignBounded(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alnTight, tight, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if alnTight.Score != ref.Score {
		t.Fatalf("tight-bound optimum %d != %d", alnTight.Score, ref.Score)
	}
	if tight.EvaluatedCells > loose.EvaluatedCells {
		t.Fatalf("tighter bound evaluated more cells: %d > %d", tight.EvaluatedCells, loose.EvaluatedCells)
	}
	if tight.Fraction() >= 1 {
		t.Fatalf("optimal bound pruned nothing: fraction = %v", tight.Fraction())
	}
}

func TestAlignPrunedSimilarSequencesPruneHard(t *testing.T) {
	// Highly similar sequences: the admissible corridor hugs the diagonal
	// and the evaluated fraction should be well below 1. The optimal score
	// is passed as the bound, as the paper's Carrillo–Lipman setup does
	// with a good heuristic.
	tr := relatedTriple(77, 60, 0.05)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.Fraction(); f > 0.5 {
		t.Fatalf("similar sequences evaluated fraction %.2f, expected strong pruning", f)
	}
}

func TestAlignPrunedIgnoresWeakerProvidedBound(t *testing.T) {
	tr := relatedTriple(8, 20, 0.2)
	// A hugely negative provided bound must not weaken the built-in one.
	_, withWeak, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, -1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, base, err := AlignBounded(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withWeak.EvaluatedCells != base.EvaluatedCells {
		t.Fatalf("weaker bound changed pruning: %d vs %d", withWeak.EvaluatedCells, base.EvaluatedCells)
	}
	if withWeak.LowerBound != base.LowerBound {
		t.Fatalf("LowerBound %d != %d", withWeak.LowerBound, base.LowerBound)
	}
}

func TestPruneStatsFraction(t *testing.T) {
	if f := (PruneStats{TotalCells: 100, EvaluatedCells: 25}).Fraction(); f != 0.25 {
		t.Errorf("Fraction = %v, want 0.25", f)
	}
	if f := (PruneStats{}).Fraction(); f != 0 {
		t.Errorf("empty Fraction = %v, want 0", f)
	}
}

func TestAlignPrunedEmptySequences(t *testing.T) {
	tr := dnaTriple(t, "", "ACG", "AG")
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aln, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != ref.Score {
		t.Fatalf("band %d != full %d", aln.Score, ref.Score)
	}
}

func TestAlignPrunedParallelEqualsSequentialPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 8; trial++ {
		tr := relatedTriple(rng.Int63(), 10+rng.Intn(25), 0.15)
		seqAln, seqStats, err := AlignBounded(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parAln, parStats, err := AlignBounded(context.Background(), tr, dnaSch, Options{Workers: 4, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, parAln, dnaSch)
		if parAln.Score != seqAln.Score {
			t.Fatalf("trial %d: parallel band %d != sequential band %d", trial, parAln.Score, seqAln.Score)
		}
		if parStats != seqStats {
			t.Fatalf("trial %d: stats differ: %+v vs %+v (the band is deterministic)", trial, parStats, seqStats)
		}
	}
}

func TestAlignPrunedParallelWithHeuristicBound(t *testing.T) {
	tr := relatedTriple(71, 40, 0.1)
	ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aln, stats, err := AlignBounded(context.Background(), tr, dnaSch, Options{Workers: 3}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != ref.Score {
		t.Fatalf("parallel band %d != %d", aln.Score, ref.Score)
	}
	if stats.Fraction() >= 0.5 {
		t.Fatalf("similar sequences with optimal bound: fraction %.2f, expected strong pruning", stats.Fraction())
	}
}
