package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// ExampleAlignParallel runs the paper's blocked-wavefront algorithm on
// eight workers and cross-checks it against the same kernel at one worker,
// the sequential fill.
func ExampleAlignParallel() {
	g := seq.NewGenerator(seq.DNA, 3)
	tr := g.RelatedTriple(60, seq.MutationModel{SubstitutionRate: 0.2})
	sch := scoring.DNADefault()

	par, _ := core.AlignParallel(context.Background(), tr, sch, core.Options{Workers: 8, BlockSize: 16})
	ref, _ := core.AlignParallel(context.Background(), tr, sch, core.Options{Workers: 1})
	fmt.Println("parallel equals sequential:", par.Score == ref.Score)
	// Output:
	// parallel equals sequential: true
}

// ExampleAlignParallelLinear demonstrates the memory argument: same
// optimum, quadratic instead of cubic lattice.
func ExampleAlignParallelLinear() {
	g := seq.NewGenerator(seq.DNA, 5)
	tr := g.RelatedTriple(80, seq.MutationModel{SubstitutionRate: 0.2})
	sch := scoring.DNADefault()

	lin, _ := core.AlignParallelLinear(context.Background(), tr, sch, core.Options{Workers: 1})
	ref, _ := core.AlignParallel(context.Background(), tr, sch, core.Options{Workers: 1})
	fmt.Println("same optimum:", lin.Score == ref.Score)
	fmt.Println("memory ratio >= 20x:", core.FullMatrixBytes(tr)/core.LinearBytes(tr) >= 20)
	// Output:
	// same optimum: true
	// memory ratio >= 20x: true
}

// ExampleAlignBounded allocates only the Carrillo–Lipman admissible band,
// a small fraction of the lattice on similar sequences.
func ExampleAlignBounded() {
	g := seq.NewGenerator(seq.DNA, 7)
	tr := g.RelatedTriple(70, seq.MutationModel{SubstitutionRate: 0.05})
	sch := scoring.DNADefault()

	aln, stats, _ := core.AlignBounded(context.Background(), tr, sch, core.Options{}, mat.NegInf)
	ref, _ := core.AlignParallel(context.Background(), tr, sch, core.Options{Workers: 1})
	fmt.Println("optimal:", aln.Score == ref.Score)
	fmt.Println("evaluated under 10% of cells:", stats.Fraction() < 0.10)
	// Output:
	// optimal: true
	// evaluated under 10% of cells: true
}
