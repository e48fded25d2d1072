package core

import (
	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/wavefront"
)

// This file preserves the pre-optimization cell-fill kernels verbatim (as
// of the branchy, scheme-call-per-cell implementation) so the differential
// suites in tables_diff_test.go and packed_diff_test.go can assert that the
// table-driven, peeled, lane-packed kernels produce bit-identical lattices
// — and therefore identical scores and tracebacks — on every scheme and
// shape.

// refFillRange is the pre-change fillRange: nil-checked lanes, three
// scoring.Scheme.Sub calls per interior cell.
func refFillRange(t *mat.Tensor3, ca, cb, cc []int8, sch *scoring.Scheme, si, sj, sk wavefront.Span) {
	ge2 := 2 * sch.GapExtend()
	for i := si.Lo; i < si.Hi; i++ {
		var ai int8
		if i > 0 {
			ai = ca[i-1]
		}
		for j := sj.Lo; j < sj.Hi; j++ {
			var bj int8
			var sAB mat.Score
			if j > 0 {
				bj = cb[j-1]
				if i > 0 {
					sAB = sch.Sub(ai, bj)
				}
			}
			var lane11, lane10, lane01 []mat.Score
			if i > 0 && j > 0 {
				lane11 = t.Lane(i-1, j-1)
			}
			if i > 0 {
				lane10 = t.Lane(i-1, j)
			}
			if j > 0 {
				lane01 = t.Lane(i, j-1)
			}
			cur := t.Lane(i, j)
			for k := sk.Lo; k < sk.Hi; k++ {
				if i == 0 && j == 0 && k == 0 {
					cur[0] = 0
					continue
				}
				best := mat.NegInf
				if k > 0 {
					ck := cc[k-1]
					if lane11 != nil {
						if v := lane11[k-1] + sAB + sch.Sub(ai, ck) + sch.Sub(bj, ck); v > best {
							best = v
						}
					}
					if lane10 != nil {
						if v := lane10[k-1] + sch.Sub(ai, ck) + ge2; v > best {
							best = v
						}
					}
					if lane01 != nil {
						if v := lane01[k-1] + sch.Sub(bj, ck) + ge2; v > best {
							best = v
						}
					}
					if v := cur[k-1] + ge2; v > best {
						best = v
					}
				}
				if lane11 != nil {
					if v := lane11[k] + sAB + ge2; v > best {
						best = v
					}
				}
				if lane10 != nil {
					if v := lane10[k] + ge2; v > best {
						best = v
					}
				}
				if lane01 != nil {
					if v := lane01[k] + ge2; v > best {
						best = v
					}
				}
				cur[k] = best
			}
		}
	}
}

// refFillPlaneRange is the pre-change fillPlaneRange from the linear-space
// sweep.
func refFillPlaneRange(cur, prev *mat.Plane, ai int8, cb, cc []int8, sch *scoring.Scheme, sj, sk wavefront.Span) {
	ge2 := 2 * sch.GapExtend()
	for j := sj.Lo; j < sj.Hi; j++ {
		var bj int8
		var sAB mat.Score
		if j > 0 {
			bj = cb[j-1]
			if prev != nil {
				sAB = sch.Sub(ai, bj)
			}
		}
		for k := sk.Lo; k < sk.Hi; k++ {
			if prev == nil && j == 0 && k == 0 {
				cur.Set(0, 0, 0)
				continue
			}
			best := mat.NegInf
			if k > 0 {
				ck := cc[k-1]
				if j > 0 {
					if v := cur.At(j-1, k-1) + sch.Sub(bj, ck) + ge2; v > best {
						best = v
					}
				}
				if v := cur.At(j, k-1) + ge2; v > best {
					best = v
				}
				if prev != nil {
					if v := prev.At(j, k-1) + sch.Sub(ai, ck) + ge2; v > best {
						best = v
					}
					if j > 0 {
						if v := prev.At(j-1, k-1) + sAB + sch.Sub(ai, ck) + sch.Sub(bj, ck); v > best {
							best = v
						}
					}
				}
			}
			if j > 0 {
				if v := cur.At(j-1, k) + ge2; v > best {
					best = v
				}
				if prev != nil {
					if v := prev.At(j-1, k) + sAB + ge2; v > best {
						best = v
					}
				}
			}
			if prev != nil {
				if v := prev.At(j, k) + ge2; v > best {
					best = v
				}
			}
			cur.Set(j, k, best)
		}
	}
}

// refAffineFill is the fill phase of the pre-change affineDPMoves: seven
// zeroed-then-NegInf lattices, colBaseAffine and the guarded 7×7 state
// transition evaluated per cell.
func refAffineFill(ca, cb, cc []int8, sch *scoring.Scheme, q0 alignment.Move) [7]*mat.Tensor3 {
	n, m, p := len(ca), len(cb), len(cc)
	go_ := sch.GapOpen()
	var d [7]*mat.Tensor3
	for s := 0; s < 7; s++ {
		d[s] = mat.NewTensor3(n+1, m+1, p+1)
		d[s].Fill(mat.NegInf)
	}
	d[q0-1].Set(0, 0, 0, 0)
	for i := 0; i <= n; i++ {
		var ai int8
		if i > 0 {
			ai = ca[i-1]
		}
		for j := 0; j <= m; j++ {
			var bj int8
			if j > 0 {
				bj = cb[j-1]
			}
			for k := 0; k <= p; k++ {
				if i == 0 && j == 0 && k == 0 {
					continue
				}
				var ck int8
				if k > 0 {
					ck = cc[k-1]
				}
				for s := alignment.Move(1); s <= 7; s++ {
					di, dj, dk := moveDelta(s)
					pi, pj, pk := i-di, j-dj, k-dk
					if pi < 0 || pj < 0 || pk < 0 {
						continue
					}
					base := colBaseAffine(sch, s, ai, bj, ck)
					best := mat.NegInf
					for q := alignment.Move(1); q <= 7; q++ {
						pv := d[q-1].At(pi, pj, pk)
						if pv <= mat.NegInf/2 {
							continue
						}
						if v := pv + mat.Score(openCount[q][s])*go_; v > best {
							best = v
						}
					}
					if best > mat.NegInf/2 {
						d[s-1].Set(i, j, k, best+base)
					}
				}
			}
		}
	}
	return d
}
