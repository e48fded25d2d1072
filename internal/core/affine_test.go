package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/alignment"
	"repro/internal/scoring"
	"repro/internal/seq"
)

func TestOpenCountTable(t *testing.T) {
	// From "all consume" (q=7) every one-sided gap pair pays an open.
	cases := []struct {
		q, s alignment.Move
		want int8
	}{
		{7, 7, 0},                                 // XXX after XXX: no gaps at all
		{7, alignment.MoveXXG, 2},                 // pairs A/C and B/C open
		{7, alignment.MoveXGG, 2},                 // pairs A/B and A/C open (B/C is gap-gap)
		{alignment.MoveXGG, alignment.MoveXGG, 0}, // continuing both gaps
		{alignment.MoveXXG, alignment.MoveXXG, 0}, // continuing C's gap
		{alignment.MoveXXG, alignment.MoveXGX, 2}, // C's gaps close, B's open: A/B opens, B/C flips direction
		{alignment.MoveXGG, 7, 0},                 // closing gaps costs nothing
		{alignment.MoveGXG, alignment.MoveXGG, 2},
	}
	for _, c := range cases {
		if got := openCount[c.q][c.s]; got != c.want {
			t.Errorf("openCount[%s][%s] = %d, want %d", c.q, c.s, got, c.want)
		}
	}
}

// TestAffineGroups pins the open-count grouping the lane pass's paired
// loops hard-code: per successor mask, the zero-open state and the states
// paying one and two opens (as masks).
func TestAffineGroups(t *testing.T) {
	want := map[alignment.Move][3][]int{
		1: {{1}, {3, 5}, {2, 4, 6, 7}},
		2: {{2}, {3, 6}, {1, 4, 5, 7}},
		3: {{3}, {1, 2}, {4, 5, 6, 7}},
		4: {{4}, {5, 6}, {1, 2, 3, 7}},
		5: {{5}, {1, 4}, {2, 3, 6, 7}},
		6: {{6}, {2, 4}, {1, 3, 5, 7}},
	}
	asMasks := func(idx []int) []int {
		out := make([]int, len(idx))
		for i, q := range idx {
			out[i] = q + 1
		}
		sort.Ints(out)
		return out
	}
	for s, w := range want {
		g := affineGroups[s]
		got := [3][]int{asMasks([]int{g.own}), asMasks(g.one[:]), asMasks(g.two[:])}
		if !reflect.DeepEqual(got, w) || g.opens != [2]int8{1, 2} {
			t.Errorf("mask %s: groups %v opens %v, want %v opens [1 2]", s, got, g.opens, w)
		}
	}
	if g := affineGroups[alignment.MoveXXX]; g.own != 6 || g.opens != [2]int8{0, 0} {
		t.Errorf("XXX: own %d opens %v, want own 6 and no opens", g.own, g.opens)
	}
}

func TestAlignAffineZeroOpenEqualsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 15; trial++ {
		tr := randomTriple(rng, rng.Intn(10), rng.Intn(10), rng.Intn(10))
		lin, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		aff, err := AlignAffineParallel(context.Background(), tr, dnaSch, Options{Workers: 1}) // gapOpen == 0
		if err != nil {
			t.Fatal(err)
		}
		if aff.Score != lin.Score {
			t.Fatalf("trial %d: affine(open=0) = %d, linear = %d", trial, aff.Score, lin.Score)
		}
		if err := aff.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAlignAffineMatchesBruteForce(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		tr := randomTriple(rng, rng.Intn(4), rng.Intn(4), rng.Intn(4))
		want, err := BruteForceAffineScore(tr, sch)
		if err != nil {
			t.Fatal(err)
		}
		aln, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if aln.Score != want {
			t.Fatalf("trial %d (%s): AlignAffineParallel = %d, brute = %d",
				trial, tr.Describe(), aln.Score, want)
		}
	}
}

func TestAlignAffineNaturalRescoreNeverBelowDP(t *testing.T) {
	// Quasi-natural charges at least as many opens as the natural count,
	// so the natural rescore of the returned alignment is >= the DP score.
	sch, err := scoring.DNADefault().WithGaps(-6, -1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		tr := randomTriple(rng, 3+rng.Intn(8), 3+rng.Intn(8), 3+rng.Intn(8))
		aln, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if natural := aln.SPScoreAffine(sch); natural < aln.Score {
			t.Fatalf("trial %d: natural rescore %d below DP score %d", trial, natural, aln.Score)
		}
	}
}

func TestAlignAffinePrefersSingleLongGap(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-8, -1)
	if err != nil {
		t.Fatal(err)
	}
	tr := dnaTriple(t, "ACGTACGTACGT", "ACGTACGT", "ACGTACGTACGT")
	aln, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	// B needs 4 gap columns; with a harsh open they must be contiguous.
	runs := 0
	inRun := false
	for _, m := range aln.Moves {
		gapB := m&alignment.ConsumeB == 0
		if gapB && !inRun {
			runs++
		}
		inRun = gapB
	}
	if runs != 1 {
		_, rb, _ := aln.Rows()
		t.Fatalf("B's gaps split into %d runs: %q", runs, rb)
	}
}

func TestAlignAffineEmpty(t *testing.T) {
	sch, _ := scoring.DNADefault().WithGaps(-4, -1)
	aln, err := AlignAffineParallel(context.Background(), dnaTriple(t, "", "", ""), sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != 0 || aln.Columns() != 0 {
		t.Fatalf("empty affine: score %d cols %d", aln.Score, aln.Columns())
	}
	// One sequence only: a single gap run in each of the two pairs that
	// involve the non-empty sequence.
	aln, err = AlignAffineParallel(context.Background(), dnaTriple(t, "ACG", "", ""), sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs A/B and A/C: open -4 once each, extend -1 ×3 each; B/C all gap-gap.
	if want := int32(2 * (-4 - 3)); aln.Score != want {
		t.Fatalf("single-sequence affine = %d, want %d", aln.Score, want)
	}
}

func TestAlignAffineProtein(t *testing.T) {
	sch := scoring.BLOSUM62() // affine by default: -11/-1
	g := seq.NewGenerator(seq.Protein, 53)
	tr := g.RelatedTriple(12, seq.Uniform(0.15))
	aln, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := aln.Validate(); err != nil {
		t.Fatal(err)
	}
	// The affine optimum is at least the linear-model optimum penalized by
	// the extra opens, and at least the trivial alignment's affine score.
	trivial, err := TrivialAlignment(tr, sch)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score < trivial.SPScoreAffine(sch) {
		t.Fatalf("affine optimum %d below trivial alignment's natural score %d",
			aln.Score, trivial.SPScoreAffine(sch))
	}
}

func TestAlignAffineParallelEqualsSequential(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-5, -1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 12; trial++ {
		tr := randomTriple(rng, rng.Intn(14), rng.Intn(14), rng.Intn(14))
		ref, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{Workers: 1, BlockSize: 4},
			{Workers: 4, BlockSize: 3},
			{Workers: 8, BlockSize: 16},
		} {
			par, err := AlignAffineParallel(context.Background(), tr, sch, opt)
			if err != nil {
				t.Fatalf("trial %d %+v: %v", trial, opt, err)
			}
			if par.Score != ref.Score {
				t.Fatalf("trial %d %+v (%s): parallel affine %d != sequential %d",
					trial, opt, tr.Describe(), par.Score, ref.Score)
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestAlignAffineParallelEmptyAndCap(t *testing.T) {
	sch, _ := scoring.DNADefault().WithGaps(-4, -1)
	aln, err := AlignAffineParallel(context.Background(), dnaTriple(t, "", "", ""), sch, Options{})
	if err != nil || aln.Score != 0 {
		t.Fatalf("empty parallel affine: %v score %d", err, aln.Score)
	}
	tr := dnaTriple(t, "ACGTACGT", "ACGTACGT", "ACGTACGT")
	if _, err := AlignAffineParallel(context.Background(), tr, sch, Options{MaxBytes: 64}); err == nil {
		t.Fatal("memory cap not enforced")
	}
}
