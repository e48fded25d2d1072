package repro

// Integration tests for the serving-cache support surface in the root
// package: AlignSeeded (the near-duplicate patch-up primitive) must be
// bit-identical to a full alignment whenever its seed is a valid lower
// bound and fail detectably otherwise.

import (
	"context"
	"testing"
)

// TestAlignSeededBitIdenticalToFull seeds the bounded kernel with bounds of
// varying tightness — including the exact optimum — and requires the exact
// score and rows every time.
func TestAlignSeededBitIdenticalToFull(t *testing.T) {
	g := NewGenerator(DNA, 41)
	tr := g.RelatedTriple(96, MutationModel{SubstitutionRate: 0.08, InsertionRate: 0.02})
	control, err := Align(tr, Options{Algorithm: AlgorithmFull})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb, cc := control.Rows()
	for _, slack := range []int32{0, 5, 200, 100000} {
		res, err := AlignSeeded(context.Background(), tr, Options{}, control.Score-slack)
		if err != nil {
			t.Fatalf("slack %d: %v", slack, err)
		}
		if res.Score != control.Score {
			t.Fatalf("slack %d: score %d, want %d", slack, res.Score, control.Score)
		}
		ra, rb, rc := res.Rows()
		if ra != ca || rb != cb || rc != cc {
			t.Fatalf("slack %d: rows differ from the full kernel", slack)
		}
		if res.Algorithm != AlgorithmBounded {
			t.Fatalf("slack %d: algorithm %q, want bounded", slack, res.Algorithm)
		}
		if res.Plan == nil || res.Prune == nil {
			t.Fatalf("slack %d: missing plan/prune metadata", slack)
		}
	}
}

// TestAlignSeededTooHighSeedFails: a seed above the optimum excludes the
// optimal path from the admissible band; AlignSeeded must report that
// instead of returning a suboptimal alignment — the fall-through contract
// the near-duplicate patch-up's exactness rests on.
func TestAlignSeededTooHighSeedFails(t *testing.T) {
	g := NewGenerator(DNA, 43)
	tr := g.RelatedTriple(64, MutationModel{SubstitutionRate: 0.1})
	control, err := Align(tr, Options{Algorithm: AlgorithmFull})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AlignSeeded(context.Background(), tr, Options{}, control.Score+50); err == nil {
		t.Fatal("seed above the optimum must fail, not return a result")
	}
}

// TestAlignSeededRejectsAffine: the bounded kernels are linear-gap; an
// affine scheme must be refused up front.
func TestAlignSeededRejectsAffine(t *testing.T) {
	sch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	affine, err := sch.WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(DNA, 47)
	tr := g.RelatedTriple(32, MutationModel{SubstitutionRate: 0.1})
	if _, err := AlignSeeded(context.Background(), tr, Options{Scheme: affine}, 0); err == nil {
		t.Fatal("affine scheme accepted by the linear-gap bounded kernel")
	}
}

// TestAlignSeededHonorsContext: an already-cancelled context fails fast.
func TestAlignSeededHonorsContext(t *testing.T) {
	g := NewGenerator(DNA, 53)
	tr := g.RelatedTriple(32, MutationModel{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AlignSeeded(ctx, tr, Options{}, -1000); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
