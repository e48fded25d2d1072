package core

import (
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/wavefront"
)

// Lane-packed interiors: the unit-stride k lane advances four cells per
// iteration. The 7-way recurrence splits into a 6-way maximum per cell that
// depends only on already-completed lanes (and so computes for all four
// cells with full instruction-level parallelism) plus the serial GGX chain
// — one add and one max per cell — threaded through at the end. Integer max
// is associative and commutative, so the regrouped chains produce exactly
// the values the one-cell-per-step recurrence does; the differential suite
// pins both fills to the verbatim scalar oracles in reference_test.go.
//
// The unrolled bodies carry no bounds checks (verified with
// -gcflags=-d=ssa/check_bce). The compiler's prove pass cannot see through
// either a span-dependent loop lower bound (the clamp's phi node hides
// `k ≥ 1`) or strided index arithmetic (`k+1..k+3` never inherit the
// induction variable's range), so the interiors use advancing windows
// instead: every lane is re-sliced once so the loop-carried cell sits at
// index 0 and the four new cells at 1..4, the loop condition tests every
// window's length explicitly, and all windows advance by four. Constant
// indices compared against length facts from the loop condition is the one
// shape the prove pass eliminates completely.

// fillRangePacked computes every lattice cell in the box si×sj×sk in
// lexicographic order. The caller guarantees all predecessor cells outside
// the box are already computed (true for sequential whole-lattice fills and
// for wavefront-scheduled blocks). Pair scores come from the precomputed
// tables; ge2 is 2·GapExtend. The box is peeled into boundary passes
// (i == 0 plane, j == 0 row, k == 0 column) and the lane-packed interior;
// a nil lv skips the vector lane kernel.
func fillRangePacked[T mat.Cell](t *mat.Tensor3Of[T], st *scoreTablesOf[T], ge2 T, si, sj, sk wavefront.Span, lv *laneVec) {
	if fpFill.Fire() {
		panic("faultpoint: core.fill.block")
	}
	if si.Lo == 0 {
		fillBoundaryI0(t, st, ge2, sj, sk)
	}
	for i := max(si.Lo, 1); i < si.Hi; i++ {
		abRow := st.ab.Row(i)
		acRow := st.ac.Row(i)
		if sj.Lo == 0 {
			fillBoundaryJ0(t, ge2, i, acRow, sk)
		}
		for j := max(sj.Lo, 1); j < sj.Hi; j++ {
			fillLanePacked(t, ge2, i, j, abRow[j], acRow, st.bc.Row(j), sk, lv)
		}
	}
}

// fillLanePacked fills the interior k-lane of cell row (i, j), i ≥ 1,
// j ≥ 1, four cells per step. Per group of four it loads the predecessor
// lanes and score rows once, computes the four 6-way maxima m0..m3
// independently, then resolves the loop-carried GGX dependence with the
// short serial chain w0..w3.
func fillLanePacked[T mat.Cell](t *mat.Tensor3Of[T], ge2 T, i, j int, sAB T, acRow, bcRow []T, sk wavefront.Span, lv *laneVec) {
	hi := sk.Hi
	curLane := t.Lane(i, j)
	lane11 := t.Lane(i-1, j-1)
	lane10 := t.Lane(i-1, j)
	lane01 := t.Lane(i, j-1)
	lo := sk.Lo
	if lo < 1 {
		// k == 0 column: only the k-preserving moves XXG, XGG, GXG apply.
		curLane[0] = max(lane11[0]+sAB, lane10[0], lane01[0]) + ge2
		lo = 1
	}
	if lo >= hi {
		return
	}
	// Vector fast path: hand whole 16- or 8-cell blocks to the assembly
	// lane kernel; the advancing-window loop below finishes the tail.
	if lv != nil && lv.use16 {
		if nblk := (hi - lo) &^ 15; nblk > 0 {
			setLane16(&lv.a16, curLane, lane11, lane10, lane01, acRow, bcRow, lo-1, nblk, sAB)
			laneFill16(&lv.a16)
			lo += nblk
			if lo >= hi {
				return
			}
		}
	} else if lv != nil && lv.use32 {
		if nblk := (hi - lo) &^ 7; nblk > 0 {
			setLane32(&lv.a32, curLane, lane11, lane10, lane01, acRow, bcRow, lo-1, nblk, sAB)
			laneFill32(&lv.a32)
			lo += nblk
			if lo >= hi {
				return
			}
		}
	}
	// Advancing windows: index 0 is the already-filled cell lo-1, indices
	// 1..4 are the next group of cells. Each group advances every window
	// by four.
	cur := curLane[lo-1 : hi]
	w11 := lane11[lo-1 : hi]
	w10 := lane10[lo-1 : hi]
	w01 := lane01[lo-1 : hi]
	ac := acRow[lo-1 : hi]
	bc := bcRow[lo-1 : hi]
	v11, v10, v01, vkk := w11[0], w10[0], w01[0], cur[0]
	for len(cur) >= 5 && len(w11) >= 5 && len(w10) >= 5 && len(w01) >= 5 && len(ac) >= 5 && len(bc) >= 5 {
		a11, a10, a01 := w11[1], w10[1], w01[1]
		b11, b10, b01 := w11[2], w10[2], w01[2]
		c11, c10, c01 := w11[3], w10[3], w01[3]
		d11, d10, d01 := w11[4], w10[4], w01[4]
		ac0, bc0 := ac[1], bc[1]
		ac1, bc1 := ac[2], bc[2]
		ac2, bc2 := ac[3], bc[3]
		ac3, bc3 := ac[4], bc[4]
		// XXX, XGX, GXX, XXG, XGG, GXG — everything but the carried GGX.
		m0 := max(v11+sAB+ac0+bc0, v10+ac0+ge2, v01+bc0+ge2, a11+sAB+ge2, a10+ge2, a01+ge2)
		m1 := max(a11+sAB+ac1+bc1, a10+ac1+ge2, a01+bc1+ge2, b11+sAB+ge2, b10+ge2, b01+ge2)
		m2 := max(b11+sAB+ac2+bc2, b10+ac2+ge2, b01+bc2+ge2, c11+sAB+ge2, c10+ge2, c01+ge2)
		m3 := max(c11+sAB+ac3+bc3, c10+ac3+ge2, c01+bc3+ge2, d11+sAB+ge2, d10+ge2, d01+ge2)
		// The GGX prefix chain: each cell's value may feed the next via +ge2.
		w0 := max(m0, vkk+ge2)
		w1 := max(m1, w0+ge2)
		w2 := max(m2, w1+ge2)
		w3 := max(m3, w2+ge2)
		cur[1] = w0
		cur[2] = w1
		cur[3] = w2
		cur[4] = w3
		v11, v10, v01, vkk = d11, d10, d01, w3
		cur, w11, w10, w01, ac, bc = cur[4:], w11[4:], w10[4:], w01[4:], ac[4:], bc[4:]
	}
	for len(cur) >= 2 && len(w11) >= 2 && len(w10) >= 2 && len(w01) >= 2 && len(ac) >= 2 && len(bc) >= 2 {
		n11, n10, n01 := w11[1], w10[1], w01[1]
		sac, sbc := ac[1], bc[1]
		best := max(
			v11+sAB+sac+sbc, // XXX
			v10+sac+ge2,     // XGX
			v01+sbc+ge2,     // GXX
			vkk+ge2,         // GGX
			n11+sAB+ge2,     // XXG
			n10+ge2,         // XGG
			n01+ge2,         // GXG
		)
		cur[1] = best
		v11, v10, v01, vkk = n11, n10, n01, best
		cur, w11, w10, w01, ac, bc = cur[1:], w11[1:], w10[1:], w01[1:], ac[1:], bc[1:]
	}
}

// fillPlaneRangePacked computes cells (j, k) of one i-plane of the
// linear-space sweep inside the given spans, with the same
// four-cells-per-step interior as fillLanePacked. prev is the completed
// (i-1)-plane; a nil prev means i == 0 (only the in-plane moves GXX, GXG,
// GGX apply). ai is the residue consumed when advancing in A; prof is the
// residue profile against C, serving both the A-vs-C and B-vs-C lookups.
// A nil lv skips the vector lane kernel.
func fillPlaneRangePacked(cur, prev *mat.Plane, ai int8, cb []int8, sch *scoring.Scheme, prof *pairProfile, sj, sk wavefront.Span, lv *laneVec) {
	ge2 := 2 * sch.GapExtend()
	if prev == nil {
		fillPlaneRangeI0(cur, prof, ge2, cb, sj, sk)
		return
	}
	acRowFull := prof.Row(ai)
	subAi := sch.SubRow(ai)
	if sj.Lo == 0 {
		// j == 0 row: only XGX, XGG, GGX apply.
		curRow := cur.Row(0)
		prevRow := prev.Row(0)
		k := sk.Lo
		if k == 0 {
			curRow[0] = prevRow[0] + ge2 // XGG
			k = 1
		}
		for ; k < sk.Hi; k++ {
			curRow[k] = max(prevRow[k-1]+acRowFull[k], prevRow[k], curRow[k-1]) + ge2
		}
	}
	hi := sk.Hi
	for j := max(sj.Lo, 1); j < sj.Hi; j++ {
		bj := cb[j-1]
		sAB := subAi[bj]
		bcRow := prof.Row(bj)
		curRow := cur.Row(j)
		cur01Row := cur.Row(j - 1)
		prev10Row := prev.Row(j)
		prev11Row := prev.Row(j - 1)
		lo := sk.Lo
		if lo < 1 {
			curRow[0] = max(prev11Row[0]+sAB, prev10Row[0], cur01Row[0]) + ge2
			lo = 1
		}
		if lo >= hi {
			continue
		}
		if lv != nil && lv.use32 {
			if nblk := (hi - lo) &^ 7; nblk > 0 {
				setLane32(&lv.a32, curRow, prev11Row, prev10Row, cur01Row, acRowFull, bcRow, lo-1, nblk, sAB)
				laneFill32(&lv.a32)
				lo += nblk
				if lo >= hi {
					continue
				}
			}
		}
		// Same advancing-window walk as fillLanePacked: index 0 is cell
		// lo-1, indices 1..4 the next group.
		cr := curRow[lo-1 : hi]
		w11 := prev11Row[lo-1 : hi]
		w10 := prev10Row[lo-1 : hi]
		w01 := cur01Row[lo-1 : hi]
		ac := acRowFull[lo-1 : hi]
		bc := bcRow[lo-1 : hi]
		v11, v10, v01, vkk := w11[0], w10[0], w01[0], cr[0]
		for len(cr) >= 5 && len(w11) >= 5 && len(w10) >= 5 && len(w01) >= 5 && len(ac) >= 5 && len(bc) >= 5 {
			a11, a10, a01 := w11[1], w10[1], w01[1]
			b11, b10, b01 := w11[2], w10[2], w01[2]
			c11, c10, c01 := w11[3], w10[3], w01[3]
			d11, d10, d01 := w11[4], w10[4], w01[4]
			ac0, bc0 := ac[1], bc[1]
			ac1, bc1 := ac[2], bc[2]
			ac2, bc2 := ac[3], bc[3]
			ac3, bc3 := ac[4], bc[4]
			m0 := max(v11+sAB+ac0+bc0, v10+ac0+ge2, v01+bc0+ge2, a11+sAB+ge2, a10+ge2, a01+ge2)
			m1 := max(a11+sAB+ac1+bc1, a10+ac1+ge2, a01+bc1+ge2, b11+sAB+ge2, b10+ge2, b01+ge2)
			m2 := max(b11+sAB+ac2+bc2, b10+ac2+ge2, b01+bc2+ge2, c11+sAB+ge2, c10+ge2, c01+ge2)
			m3 := max(c11+sAB+ac3+bc3, c10+ac3+ge2, c01+bc3+ge2, d11+sAB+ge2, d10+ge2, d01+ge2)
			w0 := max(m0, vkk+ge2)
			w1 := max(m1, w0+ge2)
			w2 := max(m2, w1+ge2)
			w3 := max(m3, w2+ge2)
			cr[1] = w0
			cr[2] = w1
			cr[3] = w2
			cr[4] = w3
			v11, v10, v01, vkk = d11, d10, d01, w3
			cr, w11, w10, w01, ac, bc = cr[4:], w11[4:], w10[4:], w01[4:], ac[4:], bc[4:]
		}
		for len(cr) >= 2 && len(w11) >= 2 && len(w10) >= 2 && len(w01) >= 2 && len(ac) >= 2 && len(bc) >= 2 {
			n11, n10, n01 := w11[1], w10[1], w01[1]
			sac, sbc := ac[1], bc[1]
			best := max(
				v11+sAB+sac+sbc, // XXX
				v10+sac+ge2,     // XGX
				v01+sbc+ge2,     // GXX
				vkk+ge2,         // GGX
				n11+sAB+ge2,     // XXG
				n10+ge2,         // XGG
				n01+ge2,         // GXG
			)
			cr[1] = best
			v11, v10, v01, vkk = n11, n10, n01, best
			cr, w11, w10, w01, ac, bc = cr[1:], w11[1:], w10[1:], w01[1:], ac[1:], bc[1:]
		}
	}
}
