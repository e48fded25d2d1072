package core

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// AlignAffineLinear computes the same quasi-natural affine optimum as
// AlignAffineParallel in O(7·m·p) working memory instead of seven full lattices —
// the three-dimensional, seven-state analogue of Myers–Miller. The
// divide-and-conquer splits A at its midpoint; the state joined across the
// split plane is the mask of the prefix's last column, so gap runs
// crossing the plane charge their opens exactly once. Sub-problems inherit
// boundary masks (q0 entering, sEnd leaving) and bottom out in the
// boundary-aware full DP at one worker.
func AlignAffineLinear(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	// Peak lattice memory: 7 state planes ×2 (sweep double-buffer) ×2
	// (forward and backward concurrently live at the join).
	if need := 28 * mat.PlaneBytes(len(cb)+1, len(cc)+1); need > opt.maxBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, need, opt.maxBytes())
	}
	moves, err := affineLinearRec(ctx, ca, cb, cc, sch, 7, 0)
	if err != nil {
		return nil, err
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("core: affine linear produced inconsistent alignment: %w", err)
	}
	aln.Score = QuasiNaturalScore(aln, sch)
	return aln, nil
}

// affineSmallVolume bounds the box size at which the recursion switches to
// the boundary-aware full DP; the 7-state lattice costs 7×4 bytes per
// cell, so this keeps leaf allocations around a megabyte.
const affineSmallVolume = 1 << 14

func affineLinearRec(ctx context.Context, ca, cb, cc []int8, sch *scoring.Scheme, q0, sEnd alignment.Move) ([]alignment.Move, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if len(ca) <= 1 || (len(ca)+1)*(len(cb)+1)*(len(cc)+1) <= affineSmallVolume {
		moves, _, err := affineDPMoves(ctx, ca, cb, cc, sch, Options{Workers: 1}, q0, sEnd)
		return moves, err
	}
	mid := len(ca) / 2
	fwd, err := affineForwardPlanes(ctx, ca[:mid], cb, cc, sch, q0)
	if err != nil {
		return nil, err
	}
	bwd, err := affineBackwardPlanes(ctx, ca[mid:], cb, cc, sch, sEnd)
	if err != nil {
		putPlanes7(&fwd)
		return nil, err
	}

	m, p := len(cb), len(cc)
	bestV := mat.NegInf
	bestJ, bestK := 0, 0
	var bestS alignment.Move
	for s := alignment.Move(1); s <= 7; s++ {
		fp, bp := fwd[s-1], bwd[s-1]
		for j := 0; j <= m; j++ {
			fRow := fp.Row(j)
			bRow := bp.Row(j)
			for k := 0; k <= p; k++ {
				f := fRow[k]
				if f <= mat.NegInf/2 {
					continue
				}
				b := bRow[k]
				if b <= mat.NegInf/2 {
					continue
				}
				if v := f + b; v > bestV {
					bestV, bestJ, bestK, bestS = v, j, k, s
				}
			}
		}
	}
	putPlanes7(&fwd)
	putPlanes7(&bwd)
	if bestV <= mat.NegInf/2 {
		return nil, fmt.Errorf("core: affine linear join infeasible (box %d,%d,%d end %s)", len(ca), m, p, sEnd)
	}

	left, err := affineLinearRec(ctx, ca[:mid], cb[:bestJ], cc[:bestK], sch, q0, bestS)
	if err != nil {
		return nil, err
	}
	right, err := affineLinearRec(ctx, ca[mid:], cb[bestJ:], cc[bestK:], sch, bestS, sEnd)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

// putPlanes7 returns a seven-plane state set to the arena.
func putPlanes7(ps *[7]*mat.Plane) {
	for s := 0; s < 7; s++ {
		mat.PutPlane(ps[s])
		ps[s] = nil
	}
}

// affineForwardPlanes sweeps the 7-state recurrence over all of ca and
// returns, per state s, the plane F[s](j, k): the best score of aligning
// ca, cb[:j], cc[:k] ending with column mask s, with q0 as the virtual
// mask before the first column. Each (i, j) row is one grouped-open lane
// pass, the same interior the full-lattice fills run; the i = 0 plane has
// no previous plane. The caller owns the returned planes and must release
// them with putPlanes7; on error everything is released here.
func affineForwardPlanes(ctx context.Context, ca, cb, cc []int8, sch *scoring.Scheme, q0 alignment.Move) ([7]*mat.Plane, error) {
	m, p := len(cb), len(cc)
	f := newAffineFill(ca, cb, cc, sch)
	defer f.release()
	var prev, cur [7]*mat.Plane
	for s := 0; s < 7; s++ {
		prev[s] = mat.GetPlane(m+1, p+1)
		cur[s] = mat.GetPlane(m+1, p+1)
	}
	// The origin cell carries the q0 seed.
	for s := 0; s < 7; s++ {
		cur[s].Set(0, 0, mat.NegInf)
	}
	cur[q0-1].Set(0, 0, 0)

	r := affineRow{nk: p + 1}
	for i := 0; i <= len(ca); i++ {
		if err := checkCtx(ctx); err != nil {
			putPlanes7(&prev)
			putPlanes7(&cur)
			return [7]*mat.Plane{}, err
		}
		for s := range cur {
			r.cur[s] = cur[s].Cells()
			if i > 0 {
				r.up[s] = prev[s].Cells()
			}
		}
		f.row(&r, i, 0, m+1, 0, p+1)
		prev, cur = cur, prev
	}
	putPlanes7(&cur)
	return prev, nil
}

// affineBackwardPlanes computes, per prev-mask q, the plane G[q](j, k):
// the best score of aligning all of ca with cb[j:], cc[k:] when the column
// immediately before this suffix had mask q, under the end constraint
// sEnd (0 = unconstrained; otherwise the suffix's final column — or, for
// an empty suffix, q itself — must be sEnd). The caller owns the returned
// planes and must release them with putPlanes7; on error everything is
// released here.
func affineBackwardPlanes(ctx context.Context, ca, cb, cc []int8, sch *scoring.Scheme, sEnd alignment.Move) ([7]*mat.Plane, error) {
	n, m, p := len(ca), len(cb), len(cc)
	go_ := sch.GapOpen()
	ge := sch.GapExtend()
	prof := newPairProfile(cc, sch)
	defer prof.release()
	open := newAffineOpenTable(sch)
	var next, cur [7]*mat.Plane
	for s := 0; s < 7; s++ {
		next[s] = mat.GetPlane(m+1, p+1)
		cur[s] = mat.GetPlane(m+1, p+1)
	}

	// cell is the guarded transition for boundary cells (terminal plane,
	// j == m row, k == p column), verbatim from the original sweep.
	cell := func(i, j, k int, base bool) {
		var ai, bj, ck int8
		if i < n {
			ai = ca[i]
		}
		if j < m {
			bj = cb[j]
		}
		if k < p {
			ck = cc[k]
		}
		for q := alignment.Move(1); q <= 7; q++ {
			best := mat.NegInf
			if base && j == m && k == p {
				// Empty suffix: valid iff the constraint is already
				// satisfied by the previous column.
				if sEnd == 0 || q == sEnd {
					best = 0
				}
				cur[q-1].Set(j, k, best)
				continue
			}
			for s := alignment.Move(1); s <= 7; s++ {
				di, dj, dk := moveDelta(s)
				nj, nk := j+dj, k+dk
				if nj > m || nk > p || (di == 1 && i >= n) {
					continue
				}
				src := &cur
				if di == 1 {
					src = &next
				}
				sv := src[s-1].At(nj, nk)
				if sv <= mat.NegInf/2 {
					continue
				}
				v := mat.Score(openCount[q][s])*go_ + colBaseAffine(sch, s, ai, bj, ck) + sv
				if v > best {
					best = v
				}
			}
			cur[q-1].Set(j, k, best)
		}
	}

	fill := func(i int, base bool) {
		if base || i >= n {
			for j := m; j >= 0; j-- {
				for k := p; k >= 0; k-- {
					cell(i, j, k, base)
				}
			}
			return
		}
		ai := ca[i]
		acRow := prof.Row(ai)
		subAi := sch.SubRow(ai)
		for k := p; k >= 0; k-- {
			cell(i, m, k, false)
		}
		for j := m - 1; j >= 0; j-- {
			bj := cb[j]
			sAB := subAi[bj]
			bcRow := prof.Row(bj)
			var n0, n1, c0, c1 [7][]mat.Score
			for s := 0; s < 7; s++ {
				n0[s] = next[s].Row(j)
				n1[s] = next[s].Row(j + 1)
				c0[s] = cur[s].Row(j)
				c1[s] = cur[s].Row(j + 1)
			}
			// Successor row group and k-offset per successor mask:
			// consuming A selects the next plane, B the j+1 row, C the
			// k+1 column.
			succs := [8]struct {
				rows *[7][]mat.Score
				off  int
			}{
				1: {&n0, 0}, 2: {&c1, 0}, 3: {&n1, 0},
				4: {&c0, 1}, 5: {&n0, 1}, 6: {&c1, 1}, 7: {&n1, 1},
			}
			cell(i, j, p, false)
			for k := p - 1; k >= 0; k-- {
				// The profile is 1-based against cc, and the suffix sweep
				// consumes cc[k], so its score row is read at k+1.
				base := affineBases(sAB, acRow[k+1], bcRow[k+1], ge)
				var tmp [8]mat.Score
				for s := 1; s <= 7; s++ {
					tmp[s] = succs[s].rows[s-1][k+succs[s].off] + base[s]
				}
				for q := 1; q <= 7; q++ {
					op := &open[q]
					best := tmp[1] + op[1]
					for s := 2; s <= 7; s++ {
						if v := tmp[s] + op[s]; v > best {
							best = v
						}
					}
					if best <= mat.NegInf/2 {
						c0[q-1][k] = mat.NegInf
					} else {
						c0[q-1][k] = best
					}
				}
			}
		}
	}

	fill(n, true)
	next, cur = cur, next
	for i := n - 1; i >= 0; i-- {
		if err := checkCtx(ctx); err != nil {
			putPlanes7(&next)
			putPlanes7(&cur)
			return [7]*mat.Plane{}, err
		}
		fill(i, false)
		next, cur = cur, next
	}
	putPlanes7(&cur)
	return next, nil
}

// QuasiNaturalScore evaluates an alignment under the quasi-natural affine
// objective the affine DP optimizes: column base costs plus a gap-open per
// induced pair whose one-sided pattern differs from the previous column's
// (the first column compares against the all-consume mask).
func QuasiNaturalScore(a *alignment.Alignment, sch *scoring.Scheme) mat.Score {
	ca, cb, cc := a.Triple.A.Codes(), a.Triple.B.Codes(), a.Triple.C.Codes()
	var total mat.Score
	prev := alignment.Move(7)
	i, j, k := 0, 0, 0
	for _, mv := range a.Moves {
		var ai, bj, ck int8
		if mv&alignment.ConsumeA != 0 {
			ai = ca[i]
			i++
		}
		if mv&alignment.ConsumeB != 0 {
			bj = cb[j]
			j++
		}
		if mv&alignment.ConsumeC != 0 {
			ck = cc[k]
			k++
		}
		total += colBaseAffine(sch, mv, ai, bj, ck) + mat.Score(openCount[prev][mv])*sch.GapOpen()
		prev = mv
	}
	return total
}
