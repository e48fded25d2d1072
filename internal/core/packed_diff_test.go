package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/wavefront"
)

// Differential suite for the lane-packed kernels: fillRangePacked and
// fillPlaneRangePacked must be bit-identical to the verbatim scalar oracles
// refFillRange / refFillPlaneRange (reference_test.go) at every cell width
// — an int16 lattice is compared widened to the oracle's int32 — with the
// vector (assembly) path both enabled and disabled, on full boxes and on
// blocked sub-spans whose lanes start and end mid-vector.

// packedShapes extends diffShapes with lane lengths that exercise the
// vector blocks: ≥17 cells hits the 16-lane int16 block, 31/32 hit
// block+tail and exact-multiple endings, ~100 hits several blocks.
var packedShapes = [][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 0, 4}, {0, 5, 3},
	{1, 1, 1}, {1, 7, 4}, {6, 5, 4}, {9, 3, 7}, {8, 8, 8},
	{1, 1, 16}, {3, 3, 31}, {4, 3, 33}, {2, 5, 64}, {5, 9, 100},
	{7, 31, 17}, {2, 40, 48},
}

// withLaneAsm runs f twice: once with the vector kernels admitted (a no-op
// on hosts without AVX2) and once pinned to the pure-Go windowed interiors.
func withLaneAsm(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := laneAsmEnabled
	defer func() { laneAsmEnabled = saved }()
	for _, on := range []bool{true, false} {
		name := "asm"
		if !on {
			name = "noasm"
		}
		laneAsmEnabled = on
		t.Run(name, f)
	}
}

// diffPackedOf fills one box with the scalar oracle and compares the packed
// kernel at width T against it on the full span and on two block
// decompositions (small blocks stress the carried-cell entry paths, large
// blocks let the vector kernel run inside sub-spans).
func diffPackedOf[T mat.Cell](t *testing.T, ca, cb, cc []int8, sch *scoring.Scheme) {
	t.Helper()
	n, m, p := len(ca), len(cb), len(cc)
	si := wavefront.Span{Lo: 0, Hi: n + 1}
	sj := wavefront.Span{Lo: 0, Hi: m + 1}
	sk := wavefront.Span{Lo: 0, Hi: p + 1}
	st := newScoreTablesOf[T](ca, cb, cc, sch)
	defer st.release()
	ge2 := T(2 * sch.GapExtend())

	want := mat.NewTensor3(n+1, m+1, p+1)
	refFillRange(want, ca, cb, cc, sch, si, sj, sk)

	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, ge2)
	got := mat.NewTensor3Of[T](n+1, m+1, p+1)
	fillRangePacked(got, st, ge2, si, sj, sk, &lv)
	wantTensorsEqual(t, got, want)

	for _, bs := range []int{3, 20} {
		blocked := mat.NewTensor3Of[T](n+1, m+1, p+1)
		runBlocked3D(n, m, p, bs, func(si, sj, sk wavefront.Span) {
			fillRangePacked(blocked, st, ge2, si, sj, sk, &lv)
		})
		wantTensorsEqual(t, blocked, want)
	}
}

func TestFillRangePackedMatchesScalar(t *testing.T) {
	for name, sch := range linearDiffSchemes(t) {
		sch := sch
		t.Run(name, func(t *testing.T) {
			withLaneAsm(t, func(t *testing.T) {
				for _, shape := range packedShapes {
					tr := diffTriple(sch, 8000+int64(shape[0]+3*shape[2]), shape[0], shape[1], shape[2])
					ca, cb, cc, err := prepare(tr, sch)
					if err != nil {
						t.Fatal(err)
					}
					diffPackedOf[mat.Score](t, ca, cb, cc, sch)
					if Int16Safe(tr, sch) {
						diffPackedOf[int16](t, ca, cb, cc, sch)
					}
				}
			})
		})
	}
}

func TestFillPlaneRangePackedMatchesScalar(t *testing.T) {
	for name, sch := range linearDiffSchemes(t) {
		sch := sch
		t.Run(name, func(t *testing.T) {
			withLaneAsm(t, func(t *testing.T) {
				for _, shape := range packedShapes {
					tr := diffTriple(sch, 9000+int64(shape[1]+3*shape[2]), shape[0], shape[1], shape[2])
					ca, cb, cc, err := prepare(tr, sch)
					if err != nil {
						t.Fatal(err)
					}
					m, p := len(cb), len(cc)
					sj := wavefront.Span{Lo: 0, Hi: m + 1}
					sk := wavefront.Span{Lo: 0, Hi: p + 1}
					prof := newPairProfile(cc, sch)
					var lv laneVec
					initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())

					wantPrev, wantCur := mat.NewPlane(m+1, p+1), mat.NewPlane(m+1, p+1)
					gotPrev, gotCur := mat.NewPlane(m+1, p+1), mat.NewPlane(m+1, p+1)
					blkPrev, blkCur := mat.NewPlane(m+1, p+1), mat.NewPlane(m+1, p+1)

					layer := func(dstW, srcW, dstG, srcG, dstB, srcB *mat.Plane, i int) {
						var ai int8
						if i > 0 {
							ai = ca[i-1]
						}
						refFillPlaneRange(dstW, srcW, ai, cb, cc, sch, sj, sk)
						fillPlaneRangePacked(dstG, srcG, ai, cb, sch, prof, sj, sk, &lv)
						runBlocked3D(0, m, p, 5, func(_, bj, bk wavefront.Span) {
							fillPlaneRangePacked(dstB, srcB, ai, cb, sch, prof, bj, bk, &lv)
						})
						wantPlanesEqual(t, i, dstG, dstW)
						wantPlanesEqual(t, i, dstB, dstW)
					}
					layer(wantPrev, nil, gotPrev, nil, blkPrev, nil, 0)
					for i := 1; i <= len(ca); i++ {
						layer(wantCur, wantPrev, gotCur, gotPrev, blkCur, blkPrev, i)
						wantPrev, wantCur = wantCur, wantPrev
						gotPrev, gotCur = gotCur, gotPrev
						blkPrev, blkCur = blkCur, blkPrev
					}
					prof.release()
				}
			})
		})
	}
}

// TestPackedAlignersMatchFull pins the public full-lattice aligners — at
// both negotiated widths and across worker counts — to the score and moves
// of the verbatim scalar oracle's lattice under the same traceback.
func TestPackedAlignersMatchFull(t *testing.T) {
	ctx := context.Background()
	sch := scoring.DNADefault()
	withLaneAsm(t, func(t *testing.T) {
		for _, shape := range packedShapes {
			tr := diffTriple(sch, 11000+int64(shape[0]+shape[2]), shape[0], shape[1], shape[2])
			ca, cb, cc, err := prepare(tr, sch)
			if err != nil {
				t.Fatal(err)
			}
			n, m, p := len(ca), len(cb), len(cc)
			ref := mat.NewTensor3(n+1, m+1, p+1)
			refFillRange(ref, ca, cb, cc, sch,
				wavefront.Span{Lo: 0, Hi: n + 1}, wavefront.Span{Lo: 0, Hi: m + 1}, wavefront.Span{Lo: 0, Hi: p + 1})
			wantMoves, err := tracebackTensor(ref, ca, cb, cc, sch)
			if err != nil {
				t.Fatal(err)
			}
			wantScore := ref.At(n, m, p)
			check := func(name string, aln *alignment.Alignment, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if aln.Score != wantScore {
					t.Fatalf("shape %v %s: score %d, oracle %d", shape, name, aln.Score, wantScore)
				}
				if len(aln.Moves) != len(wantMoves) {
					t.Fatalf("shape %v %s: %d moves, oracle %d", shape, name, len(aln.Moves), len(wantMoves))
				}
				for i := range wantMoves {
					if aln.Moves[i] != wantMoves[i] {
						t.Fatalf("shape %v %s: move %d = %v, oracle %v", shape, name, i, aln.Moves[i], wantMoves[i])
					}
				}
			}
			for _, width := range []int{0, 16} {
				aln, err := AlignParallel(ctx, tr, sch, Options{Workers: 1, CellWidth: width})
				check(fmt.Sprintf("AlignParallel 1 worker width %d", width), aln, err)
				for _, w := range []int{2, 4} {
					aln, err := AlignParallel(ctx, tr, sch, Options{CellWidth: width, Workers: w, BlockSize: 6})
					check(fmt.Sprintf("AlignParallel width %d w=%d", width, w), aln, err)
				}
			}
		}
	})
}
