package msa

import (
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
)

// profCol is one column of a two-row profile: the residue codes of its
// rows p and q, scoring.Gap where a row is gapped. No column gaps both.
type profCol struct{ x, y int8 }

// alignToProfile aligns the residues r of row out optimally against the
// two-row profile prof of rows p and q and returns the three-way moves.
// Only cross pairs are scored — the profile's own pair is fixed — so a
// residue against column c scores Pair(r, c.x) + Pair(r, c.y), a gap in r
// scores Pair(Gap, c.x) + Pair(Gap, c.y), and a residue against a gapped
// column scores 2·gapExtend. Those costs are read from dense tables built
// once per call, one row per residue code r uses, so the O(len(r)·len(prof))
// interior makes no Scheme.Pair calls. The traceback prefers a residue
// column, then a gap column in the profile, then a gap in r.
func alignToProfile(r []int8, prof []profCol, sch *scoring.Scheme, out, p, q int) ([]alignment.Move, error) {
	n, m := len(r), len(prof)
	size := sch.Alphabet().Size()
	// gapR[j]: r gapped against column j. match[c*m+j]: residue code c
	// against column j, filled for the codes r uses.
	gapR := mat.GetScores(m)
	defer mat.PutScores(gapR)
	match := mat.GetScores(size * m)
	defer mat.PutScores(match)
	for j, c := range prof {
		gapR[j] = sch.Pair(scoring.Gap, c.x) + sch.Pair(scoring.Gap, c.y)
	}
	var filled [128]bool // residue codes are non-negative int8
	for _, c := range r {
		if filled[c] {
			continue
		}
		filled[c] = true
		row := match[int(c)*m : int(c)*m+m]
		for j, col := range prof {
			row[j] = sch.Pair(c, col.x) + sch.Pair(c, col.y)
		}
	}
	matchRow := func(c int8) []mat.Score { return match[int(c)*m : int(c)*m+m : int(c)*m+m] }

	gapCol := 2 * sch.GapExtend()
	f := mat.GetPlane(n+1, m+1)
	defer mat.PutPlane(f)
	row0 := f.Row(0)[: m+1 : m+1]
	row0[0] = 0
	for j := 1; j <= m; j++ {
		row0[j] = row0[j-1] + gapR[j-1]
	}
	for i := 1; i <= n; i++ {
		prev := f.Row(i - 1)[: m+1 : m+1]
		cur := f.Row(i)[: m+1 : m+1]
		mr := matchRow(r[i-1])
		left := prev[0] + gapCol
		cur[0] = left
		for j := 1; j <= m; j++ {
			best := max(prev[j-1]+mr[j-1], prev[j]+gapCol, left+gapR[j-1])
			cur[j] = best
			left = best
		}
	}

	bit := [3]alignment.Move{alignment.ConsumeA, alignment.ConsumeB, alignment.ConsumeC}
	colMove := func(c profCol) alignment.Move {
		var mv alignment.Move
		if c.x != scoring.Gap {
			mv |= bit[p]
		}
		if c.y != scoring.Gap {
			mv |= bit[q]
		}
		return mv
	}
	moves := make([]alignment.Move, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		v := f.At(i, j)
		switch {
		case i > 0 && j > 0 && v == f.At(i-1, j-1)+matchRow(r[i-1])[j-1]:
			moves = append(moves, colMove(prof[j-1])|bit[out])
			i, j = i-1, j-1
		case i > 0 && v == f.At(i-1, j)+gapCol:
			moves = append(moves, bit[out])
			i--
		case j > 0 && v == f.At(i, j-1)+gapR[j-1]:
			moves = append(moves, colMove(prof[j-1]))
			j--
		default:
			return nil, fmt.Errorf("profile traceback stuck at (%d,%d)", i, j)
		}
	}
	for l, h := 0, len(moves)-1; l < h; l, h = l+1, h-1 {
		moves[l], moves[h] = moves[h], moves[l]
	}
	return moves, nil
}
