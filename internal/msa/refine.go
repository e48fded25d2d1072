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
	cur := &alignment.Alignment{Triple: aln.Triple, Moves: append([]alignment.Move(nil), aln.Moves...)}
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

// realignOne removes sequence `out` (0=A, 1=B, 2=C) from the alignment and
// re-aligns it optimally against the profile induced by the other two
// rows, exactly as Progressive's final stage does.
func realignOne(cur *alignment.Alignment, sch *scoring.Scheme, out int) (*alignment.Alignment, error) {
	codes := tripleCodes(cur.Triple)
	bit := [3]alignment.Move{alignment.ConsumeA, alignment.ConsumeB, alignment.ConsumeC}
	p, q := (out+1)%3, (out+2)%3
	if p > q {
		p, q = q, p
	}

	// Build the two-row profile from the current alignment, dropping
	// columns where both kept rows are gapped.
	prof := make([]profCol, 0, len(cur.Moves))
	ip, iq := 0, 0
	for _, m := range cur.Moves {
		col := profCol{scoring.Gap, scoring.Gap}
		if m&bit[p] != 0 {
			col.x = codes[p][ip]
			ip++
		}
		if m&bit[q] != 0 {
			col.y = codes[q][iq]
			iq++
		}
		if col.x != scoring.Gap || col.y != scoring.Gap {
			prof = append(prof, col)
		}
	}
	moves, err := alignToProfile(codes[out], prof, sch, out, p, q)
	if err != nil {
		return nil, fmt.Errorf("msa: refine: %w", err)
	}
	out3 := &alignment.Alignment{Triple: cur.Triple, Moves: moves}
	if err := out3.Validate(); err != nil {
		return nil, fmt.Errorf("msa: refine produced inconsistent alignment: %w", err)
	}
	out3.Score = out3.SPScore(sch)
	return out3, nil
}

// CenterStarRefined runs CenterStar followed by Refine — the strongest
// heuristic in this package and the best cheap Carrillo–Lipman bound.
func CenterStarRefined(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	codes := tripleCodes(tr)
	aln, upper, err := centerStar(tr, sch, pairOptima(codes, sch), globalOps(codes, sch))
	if err != nil {
		return nil, err
	}
	return refineBelow(aln, upper, sch)
}

// CenterStarRefinedOn is CenterStarRefined over the triple's three Forward
// planes (pairwise.Forwards of A, B and C), which the caller filled and
// keeps: a bounded search reuses them for its through planes. tr must be
// valid.
func CenterStarRefinedOn(tr seq.Triple, sch *scoring.Scheme, fwd pairwise.Planes) (*alignment.Alignment, error) {
	aln, upper, err := centerStar(tr, sch, fwd.Optima(), planeOps(fwd, tripleCodes(tr), sch))
	if err != nil {
		return nil, err
	}
	return refineBelow(aln, upper, sch)
}

// refineBelow refines a center-star alignment unless it already scores
// the pairwise upper bound U: no alignment scores above U, so no round
// could improve it, and the result is the one Refine would return.
func refineBelow(aln *alignment.Alignment, upper mat.Score, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if aln.Score == upper {
		return aln, nil
	}
	return Refine(aln, sch, 0)
}
