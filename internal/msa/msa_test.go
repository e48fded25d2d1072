package msa

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/scoring"
	"repro/internal/seq"
)

var dnaSch = scoring.DNADefault()

func triple(t *testing.T, a, b, c string) seq.Triple {
	t.Helper()
	return seq.Triple{
		A: seq.MustNew("A", a, seq.DNA),
		B: seq.MustNew("B", b, seq.DNA),
		C: seq.MustNew("C", c, seq.DNA),
	}
}

func heuristics() map[string]func(seq.Triple, *scoring.Scheme) (*alignment.Alignment, error) {
	return map[string]func(seq.Triple, *scoring.Scheme) (*alignment.Alignment, error){
		"center-star": CenterStar,
		"progressive": Progressive,
	}
}

func TestHeuristicsIdenticalSequences(t *testing.T) {
	tr := triple(t, "ACGTACGT", "ACGTACGT", "ACGTACGT")
	for name, run := range heuristics() {
		aln, err := run(tr, dnaSch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if aln.Columns() != 8 {
			t.Errorf("%s: columns = %d, want 8", name, aln.Columns())
		}
		if aln.Score != 8*6 {
			t.Errorf("%s: score = %d, want 48", name, aln.Score)
		}
	}
}

func TestHeuristicsValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			g := seq.NewGenerator(seq.DNA, rng.Int63())
			tr = seq.Triple{
				A: g.Random("A", rng.Intn(25)),
				B: g.Random("B", rng.Intn(25)),
				C: g.Random("C", rng.Intn(25)),
			}
		} else {
			g := seq.NewGenerator(seq.DNA, rng.Int63())
			tr = g.RelatedTriple(8+rng.Intn(20), seq.Uniform(0.2))
		}
		opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range heuristics() {
			aln, err := run(tr, dnaSch)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := aln.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got := aln.SPScore(dnaSch); got != aln.Score {
				t.Fatalf("trial %d %s: reported %d, recomputed %d", trial, name, aln.Score, got)
			}
			if aln.Score > opt.Score {
				t.Fatalf("trial %d %s: heuristic %d beats optimum %d", trial, name, aln.Score, opt.Score)
			}
		}
	}
}

func TestHeuristicsCloseToOptimalOnSimilarTriples(t *testing.T) {
	// For highly similar sequences both heuristics should land near the
	// optimum (this is the regime where center-star's bound is tight).
	g := seq.NewGenerator(seq.DNA, 5)
	tr := g.RelatedTriple(60, seq.MutationModel{SubstitutionRate: 0.05})
	opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range heuristics() {
		aln, err := run(tr, dnaSch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if float64(aln.Score) < 0.9*float64(opt.Score) {
			t.Errorf("%s: score %d far from optimum %d", name, aln.Score, opt.Score)
		}
	}
}

func TestHeuristicScoreIsValidPruningBound(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 6)
	tr := g.RelatedTriple(40, seq.Uniform(0.1))
	cs, err := CenterStar(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	aln, stats, err := core.AlignBounded(context.Background(), tr, dnaSch, core.Options{}, cs.Score)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != opt.Score {
		t.Fatalf("pruned with heuristic bound: %d != %d", aln.Score, opt.Score)
	}
	_, base, err := core.AlignBounded(context.Background(), tr, dnaSch, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EvaluatedCells > base.EvaluatedCells {
		t.Fatalf("heuristic bound evaluated more cells than trivial bound: %d > %d",
			stats.EvaluatedCells, base.EvaluatedCells)
	}
}

func TestHeuristicsEmptySequences(t *testing.T) {
	shapes := [][3]string{
		{"", "", ""},
		{"ACGT", "", ""},
		{"", "ACG", "AG"},
		{"ACGT", "ACG", ""},
	}
	for _, s := range shapes {
		tr := triple(t, s[0], s[1], s[2])
		for name, run := range heuristics() {
			aln, err := run(tr, dnaSch)
			if err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
			if err := aln.Validate(); err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
		}
	}
}

func TestCenterStarPicksBestCenter(t *testing.T) {
	// B is clearly the center: identical to A and one substitution from C.
	tr := triple(t, "ACGTACGT", "ACGTACGT", "ACGTACTT")
	aln, err := CenterStar(tr, dnaSch)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.AlignParallel(context.Background(), tr, dnaSch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No indels are involved, so center-star is exactly optimal here.
	if aln.Score != opt.Score {
		t.Fatalf("center-star %d != optimum %d", aln.Score, opt.Score)
	}
}

func TestProgressiveProteinAffineScheme(t *testing.T) {
	// The heuristics use linear SP scoring; with an affine scheme they
	// still produce structurally valid alignments.
	g := seq.NewGenerator(seq.Protein, 9)
	tr := g.RelatedTriple(30, seq.Uniform(0.2))
	aln, err := Progressive(tr, scoring.BLOSUM62())
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
}
