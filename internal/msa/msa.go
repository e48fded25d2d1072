// Package msa implements the heuristic three-sequence aligners the exact
// algorithm is evaluated against: center-star and progressive (profile)
// alignment. Both run in O(n²) time — orders of magnitude faster than the
// exact O(n³) dynamic program — but only approximate the optimal
// sum-of-pairs score. Their scores also serve as valid Carrillo–Lipman
// lower bounds for core.AlignBounded.
package msa

import (
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// pickCenter returns the index (0, 1, 2) of the sequence whose summed
// optimal pairwise score against the other two is largest, given the pair
// optima indexed like pairwise.Planes, plus the three pairwise scores
// indexed by the absent sequence (0 -> B/C, 1 -> A/C, 2 -> A/B).
func pickCenter(opt [3]mat.Score) (int, [3]mat.Score) {
	pairScore := [3]mat.Score{opt[pairwise.BC], opt[pairwise.AC], opt[pairwise.AB]}
	// Sum for sequence i = the two pair scores it participates in.
	best, bestSum := 0, pairScore[1]+pairScore[2]
	if s := pairScore[0] + pairScore[2]; s > bestSum {
		best, bestSum = 1, s
	}
	if s := pairScore[0] + pairScore[1]; s > bestSum {
		best = 2
	}
	return best, pairScore
}

// pairOptima returns the three pairs' optimal scores over a triple's rows,
// indexed like pairwise.Planes, each computed in linear space.
func pairOptima(rows []*seq.Sequence, sch *scoring.Scheme) [3]mat.Score {
	a, b, c := rows[0].Codes(), rows[1].Codes(), rows[2].Codes()
	return [3]mat.Score{
		pairwise.GlobalScore(a, b, sch),
		pairwise.GlobalScore(a, c, sch),
		pairwise.GlobalScore(b, c, sch),
	}
}

// pairAligner returns Global(rows[x], rows[y])'s ops for x ≠ y.
type pairAligner func(x, y int) []pairwise.Op

// globalOps runs pairwise.Global on each requested pair, so at most one
// pair plane is held at a time.
func globalOps(rows []*seq.Sequence, sch *scoring.Scheme) pairAligner {
	return func(x, y int) []pairwise.Op {
		return pairwise.Global(rows[x].Codes(), rows[y].Codes(), sch).Ops
	}
}

// planeOps traces each requested pair back on its plane in fwd
// (transposed when x comes after y in the triple), filling nothing.
func planeOps(fwd pairwise.Planes, rows []*seq.Sequence, sch *scoring.Scheme) pairAligner {
	return func(x, y int) []pairwise.Op {
		f := fwd.P[x+y-1] // (0,1) -> AB, (0,2) -> AC, (1,2) -> BC
		if x < y {
			return pairwise.TraceForward(f, rows[x].Codes(), rows[y].Codes(), sch).Ops
		}
		return pairwise.TraceForwardT(f, rows[x].Codes(), rows[y].Codes(), sch).Ops
	}
}

// CenterStar aligns the triple with the center-star heuristic: the center
// sequence is aligned pairwise with each satellite, and the two pairwise
// alignments are merged with the "once a gap, always a gap" rule.
func CenterStar(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	rows := []*seq.Sequence{tr.A, tr.B, tr.C}
	aln, _, err := centerStar(tr, sch, pairOptima(rows, sch), globalOps(rows, sch))
	return aln, err
}

// centerStar is CenterStar given the pair optima opt (indexed like
// pairwise.Planes), which pick the center, and a source of the two
// center-satellite alignments. It also returns the pairwise upper bound
// U = optAB + optAC + optBC, which no three-way alignment's SP score
// exceeds.
func centerStar(tr seq.Triple, sch *scoring.Scheme, opt [3]mat.Score, ops pairAligner) (*alignment.Alignment, mat.Score, error) {
	center, _ := pickCenter(opt)
	sat1, sat2 := (center+1)%3, (center+2)%3
	// Star mask bits 0/1/2 are center/sat1/sat2; move bits are A/B/C.
	star := mergeStarMasks([][]pairwise.Op{ops(center, sat1), ops(center, sat2)})
	moves := make([]alignment.Move, len(star))
	for i, c := range star {
		for bit, row := range [3]int{center, sat1, sat2} {
			if c.Consumes(bit) {
				moves[i] |= alignment.Move(1) << uint(row)
			}
		}
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, 0, fmt.Errorf("msa: center-star produced inconsistent alignment: %w", err)
	}
	aln.Score = aln.SPScore(sch)
	return aln, opt[0] + opt[1] + opt[2], nil
}

// Progressive aligns the triple progressively: the closest pair (by
// optimal pairwise score) is aligned first, then the third sequence is
// aligned against the resulting two-row profile with a profile-aware
// dynamic program.
func Progressive(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	rows := []*seq.Sequence{tr.A, tr.B, tr.C}
	// The "outsider" is the sequence not in the closest pair; pairScore is
	// indexed by the absent sequence, so the best pair corresponds to the
	// largest entry.
	_, pairScore := pickCenter(pairOptima(rows, sch))
	outsider := 0
	for i := 1; i < 3; i++ {
		if pairScore[i] > pairScore[outsider] {
			outsider = i
		}
	}
	p, q := (outsider+1)%3, (outsider+2)%3
	if p > q {
		p, q = q, p
	}
	ops := pairwise.Global(rows[p].Codes(), rows[q].Codes(), sch).Ops

	// The pair's alignment over the triple's rows, the outsider unconsumed.
	pair := make([]alignment.Mask, len(ops))
	for i, op := range ops {
		if op != pairwise.OpB {
			pair[i] |= 1 << uint(p)
		}
		if op != pairwise.OpA {
			pair[i] |= 1 << uint(q)
		}
	}
	cols, err := alignToProfile(pair, rows, sch, outsider)
	if err != nil {
		return nil, fmt.Errorf("msa: progressive: %w", err)
	}
	moves := make([]alignment.Move, len(cols))
	for i, c := range cols {
		moves[i] = alignment.Move(c)
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("msa: progressive produced inconsistent alignment: %w", err)
	}
	aln.Score = aln.SPScore(sch)
	return aln, nil
}
