package core

import (
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// PruneStats reports how much of the lattice the Carrillo–Lipman bound
// admitted.
type PruneStats struct {
	TotalCells     int64     // (n+1)(m+1)(p+1)
	EvaluatedCells int64     // cells whose recurrence was evaluated
	LowerBound     mat.Score // the bound L used for admission
	Optimum        mat.Score // the optimal SP score found
}

// Fraction returns EvaluatedCells / TotalCells.
func (s PruneStats) Fraction() float64 {
	if s.TotalCells == 0 {
		return 0
	}
	return float64(s.EvaluatedCells) / float64(s.TotalCells)
}

// TrivialAlignment builds a valid (generally sub-optimal) alignment by
// consuming all three sequences in lock step, then pairs, then singles.
// Its SP score is the built-in Carrillo–Lipman lower bound.
func TrivialAlignment(tr seq.Triple, sch *scoring.Scheme) (*alignment.Alignment, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	na, nb, nc := tr.A.Len(), tr.B.Len(), tr.C.Len()
	moves := make([]alignment.Move, 0, na+nb+nc)
	emit := func(m alignment.Move, times int) {
		for t := 0; t < times; t++ {
			moves = append(moves, m)
		}
	}
	d := min3(na, nb, nc)
	emit(alignment.MoveXXX, d)
	na, nb, nc = na-d, nb-d, nc-d
	if ab := min2(na, nb); ab > 0 {
		emit(alignment.MoveXXG, ab)
		na, nb = na-ab, nb-ab
	}
	if ac := min2(na, nc); ac > 0 {
		emit(alignment.MoveXGX, ac)
		na, nc = na-ac, nc-ac
	}
	if bc := min2(nb, nc); bc > 0 {
		emit(alignment.MoveGXX, bc)
		nb, nc = nb-bc, nc-bc
	}
	emit(alignment.MoveXGG, na)
	emit(alignment.MoveGXG, nb)
	emit(alignment.MoveGGX, nc)
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("core: trivial alignment invalid: %w", err)
	}
	aln.Score = aln.SPScore(sch)
	return aln, nil
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }
