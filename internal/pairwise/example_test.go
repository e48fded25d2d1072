package pairwise_test

import (
	"fmt"

	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

func ExampleGlobal() {
	a := seq.MustNew("a", "ACGT", seq.DNA)
	b := seq.MustNew("b", "AGT", seq.DNA)
	r := pairwise.Global(a.Codes(), b.Codes(), scoring.DNADefault())
	ra, rb := r.Strings(a, b)
	fmt.Println("score:", r.Score)
	fmt.Println(ra)
	fmt.Println(rb)
	// Output:
	// score: 4
	// ACGT
	// A-GT
}

func ExampleHirschberg() {
	sch := scoring.DNADefault()
	a := seq.MustNew("a", "ACGTACGT", seq.DNA).Codes()
	b := seq.MustNew("b", "ACGACGT", seq.DNA).Codes()
	full := pairwise.Global(a, b, sch)
	lin := pairwise.Hirschberg(a, b, sch)
	fmt.Println("same optimum in linear space:", full.Score == lin.Score)
	// Output:
	// same optimum in linear space: true
}
