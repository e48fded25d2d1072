package pairwise

import (
	"repro/internal/mat"
	"repro/internal/scoring"
)

// Hirschberg computes an optimal global alignment under the linear gap
// model in linear space: O(len(a)·len(b)) time but only O(len(b)) working
// memory. It is the 2D prototype of the 3D divide-and-conquer used by the
// three-sequence aligner.
func Hirschberg(a, b []int8, sch *scoring.Scheme) Result {
	ops := make([]Op, 0, len(a)+len(b))
	hirschRec(a, b, sch, &ops)
	score, err := Rescore(ops, a, b, sch)
	if err != nil {
		panic("pairwise: hirschberg produced inconsistent ops: " + err.Error())
	}
	return Result{Score: score, Ops: ops}
}

func hirschRec(a, b []int8, sch *scoring.Scheme, out *[]Op) {
	switch {
	case len(a) == 0:
		for range b {
			*out = append(*out, OpB)
		}
		return
	case len(b) == 0:
		for range a {
			*out = append(*out, OpA)
		}
		return
	case len(a) == 1 || len(b) == 1:
		// Small enough for the quadratic aligner; keeps the recursion simple
		// and is where the optimal column for a single residue is decided.
		r := Global(a, b, sch)
		*out = append(*out, r.Ops...)
		return
	}
	mid := len(a) / 2
	// Optimal split of b against a's halves: forward scores of the prefix
	// plus backward scores of the suffix.
	fwd := lastRow(a[:mid], b, sch)
	bwd := lastRow(reverseCodes(a[mid:]), reverseCodes(b), sch)
	bestJ, bestV := 0, fwd[0]+bwd[len(b)]
	for j := 1; j <= len(b); j++ {
		if v := fwd[j] + bwd[len(b)-j]; v > bestV {
			bestJ, bestV = j, v
		}
	}
	mat.PutScores(fwd)
	mat.PutScores(bwd)
	hirschRec(a[:mid], b[:bestJ], sch, out)
	hirschRec(a[mid:], b[bestJ:], sch, out)
}

func reverseCodes(s []int8) []int8 {
	out := make([]int8, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}
