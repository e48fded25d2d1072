package msa

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// Refine improves a three-way alignment by iterative refinement: one
// sequence at a time is removed and optimally re-aligned against the
// profile of the remaining two rows, keeping the result whenever the SP
// score improves. Iteration stops after a full round with no improvement
// or after maxRounds rounds (≤ 0 means a sensible default). The returned
// alignment's score is never below the input's, and — like the input —
// never above the exact optimum, so it remains a valid Carrillo–Lipman
// lower bound.
func Refine(aln *alignment.Alignment, sch *scoring.Scheme, maxRounds int) (*alignment.Alignment, error) {
	return RefineContext(context.Background(), aln, sch, maxRounds)
}

// RefineContext is Refine with cooperative cancellation: the context is
// checked before every per-sequence re-alignment, and cancellation returns
// the context's error.
func RefineContext(ctx context.Context, aln *alignment.Alignment, sch *scoring.Scheme, maxRounds int) (*alignment.Alignment, error) {
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("msa: refine input: %w", err)
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	cur := aln.Multi()
	cur.Score = cur.SPScore(sch)
	for round := 0; round < maxRounds; round++ {
		improved := false
		for out := 0; out < 3; out++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand, err := realignOne(cur, sch, out)
			if err != nil {
				return nil, err
			}
			cand.Score = cand.SPScore(sch)
			if cand.Score > cur.Score {
				cur = cand
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur.ToAlignment()
}

// RefineMultiContext improves an N-row profile by iterative refinement: one
// row at a time is removed and optimally re-aligned against the profile of
// the remaining rows, keeping the result whenever the scheme's SP objective
// improves. It honors ctx between re-alignments. maxRounds ≤ 0 selects the
// same default as Refine.
func RefineMultiContext(ctx context.Context, m *alignment.Multi, sch *scoring.Scheme, maxRounds int) (*alignment.Multi, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("msa: refine input: %w", err)
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	n := m.NumRows()
	cur := &alignment.Multi{Seqs: m.Seqs, Cols: append([]alignment.Mask(nil), m.Cols...)}
	cur.Score = cur.SPScoreFor(sch)
	if n < 2 {
		return cur, nil
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		for out := 0; out < n; out++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand, err := realignOne(cur, sch, out)
			if err != nil {
				return nil, err
			}
			cand.Score = cand.SPScoreFor(sch)
			if cand.Score > cur.Score {
				cur = cand
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, nil
}

// realignOne removes row out from cur and re-aligns it optimally against
// the profile of the other rows (linear objective; see alignToProfile).
// The result's Score is left zero.
func realignOne(cur *alignment.Multi, sch *scoring.Scheme, out int) (*alignment.Multi, error) {
	cols, err := alignToProfile(cur.Cols, cur.Seqs, sch, out)
	if err != nil {
		return nil, fmt.Errorf("msa: refine: %w", err)
	}
	res := &alignment.Multi{Seqs: cur.Seqs, Cols: cols}
	if err := res.Validate(); err != nil {
		return nil, fmt.Errorf("msa: refine produced inconsistent alignment: %w", err)
	}
	return res, nil
}

// CenterStarRefined runs CenterStar followed by Refine — the strongest
// heuristic in this package and the best cheap Carrillo–Lipman bound.
func CenterStarRefined(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	rows := []*seq.Sequence{tr.A, tr.B, tr.C}
	aln, upper, err := centerStar(tr, sch, pairOptima(rows, sch), globalOps(rows, sch))
	if err != nil {
		return nil, err
	}
	return RefineBelow(aln, upper, sch)
}

// CenterStarOn is CenterStar over the triple's three Forward planes
// (pairwise.Forwards of A, B and C), which the caller filled and keeps: the
// pair optima pick the center, and both center-satellite alignments are
// traced on the planes, so nothing is filled. It also returns the pairwise
// upper bound U = optAB + optAC + optBC, which no alignment's SP score
// exceeds. A bounded search seeds with CenterStarOn and RefineBelow, and
// reuses the planes for its through planes. tr must be valid.
func CenterStarOn(tr seq.Triple, sch *scoring.Scheme, fwd pairwise.Planes) (*alignment.Alignment, mat.Score, error) {
	return centerStar(tr, sch, fwd.Optima(), planeOps(fwd, []*seq.Sequence{tr.A, tr.B, tr.C}, sch))
}

// RefineBelow refines a center-star alignment unless it already scores
// the pairwise upper bound U: no alignment scores above U, so no round
// could improve it, and the result is the one Refine would return.
func RefineBelow(aln *alignment.Alignment, upper mat.Score, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if aln.Score == upper {
		return aln, nil
	}
	return Refine(aln, sch, 0)
}
