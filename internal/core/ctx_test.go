package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/alignment"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// TestKernelsPreCancelled verifies every exact kernel rejects an
// already-cancelled context before touching the lattice.
func TestKernelsPreCancelled(t *testing.T) {
	tr := dnaTriple(t, "ACGTACGT", "ACGACGT", "ACGTACG")
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	kernels := []struct {
		name string
		run  func() error
	}{
		{"parallel/1", func() error { _, err := AlignParallel(ctx, tr, dnaSch, Options{Workers: 1}); return err }},
		{"parallel", func() error { _, err := AlignParallel(ctx, tr, dnaSch, Options{}); return err }},
		{"parallel-linear/1", func() error { _, err := AlignParallelLinear(ctx, tr, dnaSch, Options{Workers: 1}); return err }},
		{"parallel-linear", func() error { _, err := AlignParallelLinear(ctx, tr, dnaSch, Options{}); return err }},
		{"diagonal", func() error { _, err := AlignDiagonal(ctx, tr, dnaSch, Options{}); return err }},
		{"bounded", func() error { _, _, err := AlignBounded(ctx, tr, dnaSch, Options{}, -1000); return err }},
		{"affine-parallel/1", func() error { _, err := AlignAffineParallel(ctx, tr, affSch, Options{Workers: 1}); return err }},
		{"affine-linear", func() error { _, err := AlignAffineLinear(ctx, tr, affSch, Options{}); return err }},
		{"affine-parallel", func() error { _, err := AlignAffineParallel(ctx, tr, affSch, Options{}); return err }},
		{"score", func() error { _, err := Score(ctx, tr, dnaSch, Options{}); return err }},
	}
	for _, k := range kernels {
		err := k.run()
		if err == nil {
			t.Errorf("%s: pre-cancelled context accepted", k.name)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want wrapped context.Canceled", k.name, err)
		}
	}
}

// TestKernelMidPlaneCancel cancels a sequential kernel after it has
// started: the per-plane poll must stop the fill and surface the error.
func TestKernelMidPlaneCancel(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 91)
	tr := g.RelatedTriple(80, seq.Uniform(0.1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var aln *alignment.Alignment
	var err error
	go func() {
		defer close(done)
		aln, err = AlignParallel(ctx, tr, dnaSch, Options{Workers: 1})
	}()
	cancel()
	<-done
	if err == nil {
		// The fill won the race — legal, but then the result must be valid.
		if vErr := aln.Validate(); vErr != nil {
			t.Fatal(vErr)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
