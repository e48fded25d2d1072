package pairwise

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/scoring"
)

// GlobalAffine computes an optimal global alignment under the affine gap
// model (Gotoh's algorithm): a pairwise gap of length L costs
// gapOpen + L·gapExtend. With gapOpen == 0 it degenerates to the linear
// model and returns the same optimum as Global.
func GlobalAffine(a, b []int8, sch *scoring.Scheme) Result {
	n, m := len(a), len(b)
	ge := sch.GapExtend()
	gog := sch.GapOpen() + ge // cost of the first residue of a gap

	// State lattices: mm ends in a residue-residue column, xx ends in a
	// column consuming a only (gap in b), yy ends in a column consuming b
	// only (gap in a).
	mm := mat.GetPlane(n+1, m+1)
	xx := mat.GetPlane(n+1, m+1)
	yy := mat.GetPlane(n+1, m+1)
	defer mat.PutPlane(mm)
	defer mat.PutPlane(xx)
	defer mat.PutPlane(yy)
	gotohFill(mm, xx, yy, a, b, sch)

	// Traceback through the three-state lattice.
	const (
		stM = iota
		stX
		stY
	)
	state := stM
	best := mm.At(n, m)
	if xx.At(n, m) > best {
		state, best = stX, xx.At(n, m)
	}
	if yy.At(n, m) > best {
		state, best = stY, yy.At(n, m)
	}
	ops := make([]Op, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		switch state {
		case stM:
			v := mm.At(i, j)
			d := v - sch.Sub(a[i-1], b[j-1])
			switch {
			case d == mm.At(i-1, j-1):
				state = stM
			case d == xx.At(i-1, j-1):
				state = stX
			case d == yy.At(i-1, j-1):
				state = stY
			default:
				panic(fmt.Sprintf("pairwise: affine traceback stuck in M at (%d,%d)", i, j))
			}
			ops = append(ops, OpBoth)
			i, j = i-1, j-1
		case stX:
			v := xx.At(i, j)
			switch {
			case v == xx.At(i-1, j)+ge:
				state = stX
			case v == mm.At(i-1, j)+gog:
				state = stM
			case v == yy.At(i-1, j)+gog:
				state = stY
			default:
				panic(fmt.Sprintf("pairwise: affine traceback stuck in X at (%d,%d)", i, j))
			}
			ops = append(ops, OpA)
			i--
		case stY:
			v := yy.At(i, j)
			switch {
			case v == yy.At(i, j-1)+ge:
				state = stY
			case v == mm.At(i, j-1)+gog:
				state = stM
			case v == xx.At(i, j-1)+gog:
				state = stX
			default:
				panic(fmt.Sprintf("pairwise: affine traceback stuck in Y at (%d,%d)", i, j))
			}
			ops = append(ops, OpB)
			j--
		}
	}
	reverseOps(ops)
	return Result{Score: best, Ops: ops}
}

// gotohFill fills the three Gotoh state lattices over a×b. Interior rows
// run with hoisted row slices and a substitution row per a-residue; the
// planes may come from the arena (every cell is written).
func gotohFill(mm, xx, yy *mat.Plane, a, b []int8, sch *scoring.Scheme) {
	n, m := len(a), len(b)
	ge := sch.GapExtend()
	gog := sch.GapOpen() + ge
	mm.Fill(mat.NegInf)
	xx.Fill(mat.NegInf)
	yy.Fill(mat.NegInf)
	mm.Set(0, 0, 0)
	for i := 1; i <= n; i++ {
		xx.Set(i, 0, sch.GapOpen()+mat.Score(i)*ge)
	}
	for j := 1; j <= m; j++ {
		yy.Set(0, j, sch.GapOpen()+mat.Score(j)*ge)
	}
	for i := 1; i <= n; i++ {
		sub := sch.SubRow(a[i-1])
		mmP := mm.Row(i - 1)[: m+1 : m+1]
		xxP := xx.Row(i - 1)[: m+1 : m+1]
		yyP := yy.Row(i - 1)[: m+1 : m+1]
		mmC := mm.Row(i)[: m+1 : m+1]
		xxC := xx.Row(i)[: m+1 : m+1]
		yyC := yy.Row(i)[: m+1 : m+1]
		for j := 1; j <= m; j++ {
			mmC[j] = max(mmP[j-1], xxP[j-1], yyP[j-1]) + sub[b[j-1]]
			xxC[j] = max(mmP[j]+gog, xxP[j]+ge, yyP[j]+gog)
			yyC[j] = max(mmC[j-1]+gog, yyC[j-1]+ge, xxC[j-1]+gog)
		}
	}
}

// GlobalAffineScore is GlobalAffine's optimal score without the
// alignment: the same recurrence and maxima as gotohFill over three rows
// that roll down a, one per state, and no traceback.
func GlobalAffineScore(a, b []int8, sch *scoring.Scheme) mat.Score {
	m := len(b)
	ge := sch.GapExtend()
	gog := sch.GapOpen() + ge
	rows := mat.GetPlane(3, m+1)
	defer mat.PutPlane(rows)
	mm := rows.Row(0)[: m+1 : m+1]
	xx := rows.Row(1)[: m+1 : m+1]
	yy := rows.Row(2)[: m+1 : m+1]
	mm[0], xx[0], yy[0] = 0, mat.NegInf, mat.NegInf
	for j := 1; j <= m; j++ {
		mm[j], xx[j] = mat.NegInf, mat.NegInf
		yy[j] = sch.GapOpen() + mat.Score(j)*ge
	}
	for i := 1; i <= len(a); i++ {
		sub := sch.SubRow(a[i-1])
		// (dm, dx, dy) is row i-1 at column j-1, carried past its
		// overwrite; (lm, lx, ly) is row i at column j-1.
		dm, dx, dy := mm[0], xx[0], yy[0]
		lm, lx, ly := mat.NegInf, sch.GapOpen()+mat.Score(i)*ge, mat.NegInf
		mm[0], xx[0], yy[0] = lm, lx, ly
		mr, xr, yr := mm[1:][:len(b)], xx[1:][:len(b)], yy[1:][:len(b)]
		for j, c := range b {
			pm, px, py := mr[j], xr[j], yr[j]
			lm, lx, ly = max(dm, dx, dy)+sub[c],
				max(pm+gog, px+ge, py+gog),
				max(lm+gog, ly+ge, lx+gog)
			mr[j], xr[j], yr[j] = lm, lx, ly
			dm, dx, dy = pm, px, py
		}
	}
	return max(mm[m], xx[m], yy[m])
}

// RescoreAffine recomputes the affine-gap score of ops: every maximal run
// of OpA or OpB pays gapOpen once plus gapExtend per column.
func RescoreAffine(ops []Op, a, b []int8, sch *scoring.Scheme) (mat.Score, error) {
	na, nb := Consumed(ops)
	if na != len(a) || nb != len(b) {
		return 0, fmt.Errorf("pairwise: ops consume %d/%d residues, sequences have %d/%d", na, nb, len(a), len(b))
	}
	var total mat.Score
	i, j := 0, 0
	var prev Op = OpBoth
	first := true
	for _, op := range ops {
		switch op {
		case OpBoth:
			total += sch.Sub(a[i], b[j])
			i, j = i+1, j+1
		default:
			total += sch.GapExtend()
			if first || prev != op {
				total += sch.GapOpen()
			}
			if op == OpA {
				i++
			} else {
				j++
			}
		}
		prev, first = op, false
	}
	return total, nil
}
