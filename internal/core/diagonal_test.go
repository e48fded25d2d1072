package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestAlignDiagonalEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			tr = randomTriple(rng, rng.Intn(25), rng.Intn(25), rng.Intn(25))
		} else {
			tr = relatedTriple(rng.Int63(), 8+rng.Intn(20), 0.2)
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			aln, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			checkAlignment(t, aln, dnaSch)
			if aln.Score != ref.Score {
				t.Fatalf("trial %d workers=%d (%s): diagonal %d != full %d",
					trial, workers, tr.Describe(), aln.Score, ref.Score)
			}
		}
	}
}

func TestAlignDiagonalEmptyShapes(t *testing.T) {
	for _, s := range [][3]string{
		{"", "", ""}, {"ACGT", "", ""}, {"", "AC", "GT"}, {"A", "C", "G"},
	} {
		tr := dnaTriple(t, s[0], s[1], s[2])
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		aln, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if aln.Score != ref.Score {
			t.Fatalf("%v: diagonal %d != full %d", s, aln.Score, ref.Score)
		}
	}
}

func TestAlignDiagonalMemoryCap(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGTAC", "ACGTACGTAC", "ACGTACGTAC")
	if _, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{MaxBytes: 64}); err == nil {
		t.Fatal("memory cap not enforced")
	}
}
