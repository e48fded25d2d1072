package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
)

func TestAlignAffineLinearEqualsFullAffine(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 30; trial++ {
		tr := randomTriple(rng, rng.Intn(12), rng.Intn(12), rng.Intn(12))
		ref, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		lin, err := AlignAffineLinear(context.Background(), tr, sch, Options{})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, tr.Describe(), err)
		}
		if lin.Score != ref.Score {
			t.Fatalf("trial %d (%s): linear affine %d != full affine %d",
				trial, tr.Describe(), lin.Score, ref.Score)
		}
		if err := lin.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// forceRecursion shrinks nothing: to actually exercise the split path the
// box volume must exceed affineSmallVolume, so use longer sequences here.
func TestAlignAffineLinearExercisesRecursion(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-6, -1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		tr := relatedTriple(800+seed, 40, 0.2) // 41³ ≈ 69k > affineSmallVolume
		ref, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		lin, err := AlignAffineLinear(context.Background(), tr, sch, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if lin.Score != ref.Score {
			t.Fatalf("seed %d: linear affine %d != full affine %d", seed, lin.Score, ref.Score)
		}
	}
}

func TestAlignAffineLinearZeroOpenEqualsLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(703))
	for trial := 0; trial < 10; trial++ {
		tr := randomTriple(rng, rng.Intn(15), rng.Intn(15), rng.Intn(15))
		lin, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1}) // gapOpen == 0
		if err != nil {
			t.Fatal(err)
		}
		aff, err := AlignAffineLinear(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if aff.Score != lin.Score {
			t.Fatalf("trial %d: affine-linear(open=0) %d != linear %d", trial, aff.Score, lin.Score)
		}
	}
}

func TestAlignAffineLinearEmptyShapes(t *testing.T) {
	sch, _ := scoring.DNADefault().WithGaps(-4, -1)
	for _, s := range [][3]string{
		{"", "", ""}, {"ACGT", "", ""}, {"", "ACG", "AG"}, {"ACGT", "ACG", ""},
	} {
		tr := dnaTriple(t, s[0], s[1], s[2])
		ref, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		lin, err := AlignAffineLinear(context.Background(), tr, sch, Options{})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if lin.Score != ref.Score {
			t.Fatalf("%v: %d != %d", s, lin.Score, ref.Score)
		}
	}
}

func TestQuasiNaturalScoreMatchesDP(t *testing.T) {
	sch, _ := scoring.DNADefault().WithGaps(-5, -2)
	rng := rand.New(rand.NewSource(705))
	for trial := 0; trial < 15; trial++ {
		tr := randomTriple(rng, rng.Intn(10), rng.Intn(10), rng.Intn(10))
		aln, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := QuasiNaturalScore(aln, sch); got != aln.Score {
			t.Fatalf("trial %d: QuasiNaturalScore = %d, DP = %d", trial, got, aln.Score)
		}
	}
}

func TestAlignAffineLinearProtein(t *testing.T) {
	sch := scoring.BLOSUM62()
	g := seq.NewGenerator(seq.Protein, 707)
	tr := g.RelatedTriple(14, seq.Uniform(0.2))
	ref, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := AlignAffineLinear(context.Background(), tr, sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Score != ref.Score {
		t.Fatalf("protein: linear affine %d != full affine %d", lin.Score, ref.Score)
	}
}

func TestAlignAffineLinearMemoryCap(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGT", "ACGTACGT", "ACGTACGT")
	sch, _ := scoring.DNADefault().WithGaps(-4, -1)
	if _, err := AlignAffineLinear(context.Background(), tr, sch, Options{MaxBytes: 64}); err == nil {
		t.Fatal("memory cap not enforced")
	}
}
