package msa

import (
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// alignToProfile removes row out from the alignment cols over the
// sequences rows, and aligns out's residues optimally against the profile
// that the k = len(rows)−1 ≥ 1 other rows induce on cols. It
// returns the new column masks. Columns only out consumes drop out of the
// profile, so cols may leave out's bit clear throughout, as Progressive's
// pair alignment does.
//
// Only cross pairs are scored — the profile's own pairs are fixed — so a
// residue c against profile column j scores Σ Pair(c, x) over the column's
// codes x (scoring.Gap where a row is gapped), a gap in out scores
// Σ Pair(Gap, x), and a residue against a column of gaps scores
// k·gapExtend. Those costs are read from dense tables built once per call,
// one row per residue code out uses, so the O(len(out)·columns) interior
// makes no Scheme.Pair calls. The profile is held flat, as column masks
// and an m×k code block. The traceback prefers a residue column, then a
// gap column in the profile, then a gap in out.
func alignToProfile(cols []alignment.Mask, rows []*seq.Sequence, sch *scoring.Scheme, out int) ([]alignment.Mask, error) {
	k := len(rows) - 1
	outBit := alignment.Mask(1) << uint(out)
	// prof[j] is profile column j's mask, block[j*k:j*k+k] its codes.
	prof := make([]alignment.Mask, 0, len(cols))
	block := mat.GetCodes(len(cols) * k)
	defer mat.PutCodes(block)
	var idx [alignment.MaxRows]int
	for _, c := range cols {
		rest := c &^ outBit
		if rest == 0 {
			continue
		}
		at := len(prof) * k
		prof = append(prof, rest)
		for row, s := range rows {
			if row == out {
				continue
			}
			x := scoring.Gap
			if rest.Consumes(row) {
				x = s.Codes()[idx[row]]
				idx[row]++
			}
			block[at] = x
			at++
		}
	}

	r := rows[out].Codes()
	n, m := len(r), len(prof)
	size := sch.Alphabet().Size()
	// gapR[j]: r gapped against column j. match[c*m+j]: residue code c
	// against column j, filled for the codes r uses.
	gapR := mat.GetScores(m)
	defer mat.PutScores(gapR)
	match := mat.GetScores(size * m)
	defer mat.PutScores(match)
	for j := range prof {
		var s mat.Score
		for _, x := range block[j*k : j*k+k] {
			s += sch.Pair(scoring.Gap, x)
		}
		gapR[j] = s
	}
	var filled [128]bool // residue codes are non-negative int8
	for _, c := range r {
		if filled[c] {
			continue
		}
		filled[c] = true
		row := match[int(c)*m : int(c)*m+m]
		for j := range row {
			var s mat.Score
			for _, x := range block[j*k : j*k+k] {
				s += sch.Pair(c, x)
			}
			row[j] = s
		}
	}
	matchRow := func(c int8) []mat.Score { return match[int(c)*m : int(c)*m+m : int(c)*m+m] }

	gapCol := mat.Score(k) * sch.GapExtend()
	f := mat.GetPlane(n+1, m+1)
	defer mat.PutPlane(f)
	row0 := f.Row(0)[: m+1 : m+1]
	row0[0] = 0
	for j := 1; j <= m; j++ {
		row0[j] = row0[j-1] + gapR[j-1]
	}
	profileRows(f, r, matchRow, gapR, gapCol)

	res := make([]alignment.Mask, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		v := f.At(i, j)
		switch {
		case i > 0 && j > 0 && v == f.At(i-1, j-1)+matchRow(r[i-1])[j-1]:
			res = append(res, prof[j-1]|outBit)
			i, j = i-1, j-1
		case i > 0 && v == f.At(i-1, j)+gapCol:
			res = append(res, outBit)
			i--
		case j > 0 && v == f.At(i, j-1)+gapR[j-1]:
			res = append(res, prof[j-1])
			j--
		default:
			return nil, fmt.Errorf("profile traceback stuck at (%d,%d)", i, j)
		}
	}
	for l, h := 0, len(res)-1; l < h; l, h = l+1, h-1 {
		res[l], res[h] = res[h], res[l]
	}
	return res, nil
}

// profileRows fills rows 1 … len(r) of the profile DP plane f from its
// row 0, where row i aligns r[i-1] (its match row match(r[i-1])) against
// the profile columns.
func profileRows(f *mat.Plane, r []int8, match func(c int8) []mat.Score, gapR []mat.Score, gapCol mat.Score) {
	for i := 1; i <= len(r); i++ {
		prev, cur := f.Row(i-1), f.Row(i)
		cur[0] = prev[0] + gapCol
		profileRow(prev, cur, match(r[i-1]), gapR, gapCol)
	}
}

// profileRow fills cur[1:] with row i of the profile recurrence
//
//	F[i][j] = max(F[i-1][j-1] + match[j-1], F[i-1][j] + gapCol, F[i][j-1] + gapR[j-1])
//
// from prev = row i-1 and the already-set cur[0]: pairwise's forward row
// with a per-column cost for a gap in the aligned row. The diagonal and
// left values ride in registers, and the reslices let the compiler drop
// every bounds check in the loop.
func profileRow(prev, cur, match, gapR []mat.Score, gapCol mat.Score) {
	m := len(match)
	diag, left := prev[0], cur[0]
	up, out, gapR := prev[1:m+1], cur[1:m+1], gapR[:m]
	for j, s := range match {
		u := up[j]
		best := max(diag+s, u+gapCol, left+gapR[j])
		out[j] = best
		diag, left = u, best
	}
}
