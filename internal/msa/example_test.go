package msa_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// ExampleCenterStar shows the quality relationship the T3 experiment
// measures: heuristic ≤ refined heuristic ≤ exact optimum.
func ExampleCenterStar() {
	g := seq.NewGenerator(seq.DNA, 11)
	tr := g.RelatedTriple(50, seq.MutationModel{SubstitutionRate: 0.25, InsertionRate: 0.06, DeletionRate: 0.06})
	sch := scoring.DNADefault()

	cs, _ := msa.CenterStar(tr, sch)
	csr, _ := msa.CenterStarRefined(tr, sch)
	opt, _ := core.AlignParallel(context.Background(), tr, sch, core.Options{Workers: 1})

	fmt.Println("center-star <= refined:", cs.Score <= csr.Score)
	fmt.Println("refined <= optimum:", csr.Score <= opt.Score)
	// Output:
	// center-star <= refined: true
	// refined <= optimum: true
}

// ExampleRefine improves an alignment in place until a fixed point.
func ExampleRefine() {
	g := seq.NewGenerator(seq.DNA, 13)
	tr := g.RelatedTriple(40, seq.MutationModel{SubstitutionRate: 0.3, InsertionRate: 0.1, DeletionRate: 0.1})
	sch := scoring.DNADefault()
	start, _ := msa.Progressive(tr, sch)
	refined, _ := msa.Refine(start, sch, 0)
	fmt.Println("no worse after refinement:", refined.Score >= start.Score)
	// Output:
	// no worse after refinement: true
}
