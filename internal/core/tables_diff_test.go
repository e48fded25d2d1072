package core

import (
	"context"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// Differential suite: the table-driven, boundary-peeled kernels must
// produce bit-identical lattices — and therefore identical scores and
// tracebacks — to the pre-optimization kernels preserved verbatim in
// reference_test.go, on every scheme, shape, and span decomposition. The
// linear fills here run without lane state (nil laneVec), the pure-Go path
// the Hirschberg leaves use; packed_diff_test.go covers their vector path.
// The affine fills run with the vector kernels on and off.

// diffShapes covers degenerate boxes (all-empty, one empty axis, single
// residues) alongside uneven and cubic interiors.
var diffShapes = [][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 0, 4}, {0, 5, 3},
	{1, 1, 1}, {1, 7, 4}, {6, 5, 4}, {9, 3, 7}, {8, 8, 8},
}

// diffTriple builds a reproducible triple with the given lengths over the
// scheme's alphabet.
func diffTriple(sch *scoring.Scheme, seed int64, na, nb, nc int) seq.Triple {
	g := seq.NewGenerator(sch.Alphabet(), seed)
	return seq.Triple{
		A: g.Random("A", na),
		B: g.Random("B", nb),
		C: g.Random("C", nc),
	}
}

func linearDiffSchemes(t *testing.T) map[string]*scoring.Scheme {
	t.Helper()
	prot, err := scoring.BLOSUM62().WithGaps(0, -2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*scoring.Scheme{
		"dna":      scoring.DNADefault(),
		"neutralN": scoring.DNANeutralN(),
		"blosum62": prot,
	}
}

func affineDiffSchemes(t *testing.T) map[string]*scoring.Scheme {
	t.Helper()
	dna, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*scoring.Scheme{
		"dna":      dna,
		"dnaOpen0": scoring.DNADefault(), // GapOpen 0: all three open groups tie
		"blosum62": scoring.BLOSUM62(),
	}
}

// wantTensorsEqual compares a lattice of any cell width against an int32
// reference, widening each cell.
func wantTensorsEqual[T mat.Cell](t *testing.T, got *mat.Tensor3Of[T], want *mat.Tensor3) {
	t.Helper()
	ni, nj, nk := want.Dims()
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				if g, w := mat.Score(got.At(i, j, k)), want.At(i, j, k); g != w {
					t.Fatalf("cell (%d,%d,%d): got %d, want %d", i, j, k, g, w)
				}
			}
		}
	}
}

func wantPlanesEqual(t *testing.T, layer int, got, want *mat.Plane) {
	t.Helper()
	for j := 0; j < want.Rows(); j++ {
		for k := 0; k < want.Cols(); k++ {
			if g, w := got.At(j, k), want.At(j, k); g != w {
				t.Fatalf("layer %d cell (%d,%d): got %d, want %d", layer, j, k, g, w)
			}
		}
	}
}

// runBlocked3D invokes fill for every block of the box in lexicographic
// order, which respects all DP dependencies (each predecessor cell lives in
// a block with component-wise smaller-or-equal indices).
func runBlocked3D(n, m, p, bs int, fill func(si, sj, sk wavefront.Span)) {
	si := wavefront.Partition(n+1, bs)
	sj := wavefront.Partition(m+1, bs)
	sk := wavefront.Partition(p+1, bs)
	for _, bi := range si {
		for _, bj := range sj {
			for _, bk := range sk {
				fill(bi, bj, bk)
			}
		}
	}
}

func TestFillRangeMatchesReference(t *testing.T) {
	for name, sch := range linearDiffSchemes(t) {
		t.Run(name, func(t *testing.T) {
			for _, shape := range diffShapes {
				tr := diffTriple(sch, 1000+int64(shape[0]), shape[0], shape[1], shape[2])
				ca, cb, cc, err := prepare(tr, sch)
				if err != nil {
					t.Fatal(err)
				}
				n, m, p := len(ca), len(cb), len(cc)
				full := func() (si, sj, sk wavefront.Span) {
					return wavefront.Span{Lo: 0, Hi: n + 1}, wavefront.Span{Lo: 0, Hi: m + 1}, wavefront.Span{Lo: 0, Hi: p + 1}
				}
				want := mat.NewTensor3(n+1, m+1, p+1)
				si, sj, sk := full()
				refFillRange(want, ca, cb, cc, sch, si, sj, sk)

				st := newScoreTables(ca, cb, cc, sch)
				ge2 := 2 * sch.GapExtend()
				got := mat.NewTensor3(n+1, m+1, p+1)
				fillRangePacked(got, st, ge2, si, sj, sk, nil)
				wantTensorsEqual(t, got, want)

				// The same kernel applied block-wise must land on the same
				// lattice: sub-span entry points (Lo > 0) take the non-peeled
				// paths.
				blocked := mat.NewTensor3(n+1, m+1, p+1)
				runBlocked3D(n, m, p, 3, func(si, sj, sk wavefront.Span) {
					fillRangePacked(blocked, st, ge2, si, sj, sk, nil)
				})
				wantTensorsEqual(t, blocked, want)
				st.release()
			}
		})
	}
}

func TestFillPlaneRangeMatchesReference(t *testing.T) {
	for name, sch := range linearDiffSchemes(t) {
		t.Run(name, func(t *testing.T) {
			for _, shape := range diffShapes {
				tr := diffTriple(sch, 2000+int64(shape[1]), shape[0], shape[1], shape[2])
				ca, cb, cc, err := prepare(tr, sch)
				if err != nil {
					t.Fatal(err)
				}
				m, p := len(cb), len(cc)
				sj := wavefront.Span{Lo: 0, Hi: m + 1}
				sk := wavefront.Span{Lo: 0, Hi: p + 1}
				prof := newPairProfile(cc, sch)

				wantPrev, wantCur := mat.NewPlane(m+1, p+1), mat.NewPlane(m+1, p+1)
				gotPrev, gotCur := mat.NewPlane(m+1, p+1), mat.NewPlane(m+1, p+1)
				blkPrev, blkCur := mat.NewPlane(m+1, p+1), mat.NewPlane(m+1, p+1)

				layer := func(dstW, srcW, dstG, srcG, dstB, srcB *mat.Plane, i int) {
					var ai int8
					if i > 0 {
						ai = ca[i-1]
					}
					refFillPlaneRange(dstW, srcW, ai, cb, cc, sch, sj, sk)
					fillPlaneRangePacked(dstG, srcG, ai, cb, sch, prof, sj, sk, nil)
					runBlocked3D(0, m, p, 3, func(_, bj, bk wavefront.Span) {
						fillPlaneRangePacked(dstB, srcB, ai, cb, sch, prof, bj, bk, nil)
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
	}
}

// seededGarbage returns seven (n+1)×(m+1)×(p+1) lattices whose cells all
// hold a garbage value, except the origin seeded in state q0. An affine
// fill must overwrite every other cell, so no value of a previous use of
// the lattices may survive into its result.
func seededGarbage(n, m, p int, q0 alignment.Move) *[7]*mat.Tensor3 {
	var d [7]*mat.Tensor3
	for s := range d {
		d[s] = mat.NewTensor3(n+1, m+1, p+1)
		d[s].Fill(0x5eed)
	}
	seedAffineOrigin(&d, q0)
	return &d
}

// TestAffineFillMatchesReference pins the grouped-open lane pass, run by
// the sequential, blocked and plane-sweep fills, to the guarded per-cell
// recurrence — every cell of every state, for both boundary seeds, with
// the vector kernels admitted and with the pure-Go pass.
func TestAffineFillMatchesReference(t *testing.T) {
	for name, sch := range affineDiffSchemes(t) {
		t.Run(name, func(t *testing.T) {
			withLaneAsm(t, func(t *testing.T) {
				var shapes [][3]int
				for _, shape := range diffShapes {
					if shape[0]+shape[1]+shape[2] <= 18 { // the reference fill is O(49·nmp); keep it quick
						shapes = append(shapes, shape)
					}
				}
				if name == "blosum62" {
					shapes = append(shapes, [3]int{70, 67, 72}) // a progressive-MSA merge
				}
				for _, shape := range shapes {
					tr := diffTriple(sch, 4000+int64(shape[0]+shape[1]), shape[0], shape[1], shape[2])
					ca, cb, cc, err := prepare(tr, sch)
					if err != nil {
						t.Fatal(err)
					}
					n, m, p := len(ca), len(cb), len(cc)
					f := newAffineFill(ca, cb, cc, sch)
					for _, q0 := range []alignment.Move{alignment.MoveXXX, alignment.MoveGGX} {
						want := refAffineFill(ca, cb, cc, sch, q0)

						got := seededGarbage(n, m, p, q0)
						fillRangeAffine(got, &f,
							wavefront.Span{Lo: 0, Hi: n + 1},
							wavefront.Span{Lo: 0, Hi: m + 1},
							wavefront.Span{Lo: 0, Hi: p + 1})
						for s := 0; s < 7; s++ {
							wantTensorsEqual(t, got[s], want[s])
						}

						blocked := seededGarbage(n, m, p, q0)
						runBlocked3D(n, m, p, 3, func(si, sj, sk wavefront.Span) {
							fillRangeAffine(blocked, &f, si, sj, sk)
						})
						for s := 0; s < 7; s++ {
							wantTensorsEqual(t, blocked[s], want[s])
						}

						// The forward sweep over ca[:i] ends on the reference's
						// i-plane.
						plane := mat.NewPlane(m+1, p+1)
						for i := 0; i <= n; i++ {
							fwd, err := affineForwardPlanes(context.Background(), ca[:i], cb, cc, sch, q0)
							if err != nil {
								t.Fatal(err)
							}
							for s := 0; s < 7; s++ {
								want[s].PlaneI(i, plane)
								wantPlanesEqual(t, i, fwd[s], plane)
							}
							putPlanes7(&fwd)
						}
					}
					f.release()
				}
			})
		})
	}
}

// TestAlignersAgreeOnRandomTriples pins the public aligners to each other
// and (on tiny shapes) to the exponential brute-force scorer: every kernel
// sees the same tables, so every kernel must report the same optimum, and
// the deterministic tracebacks of the full-matrix aligners must coincide.
func TestAlignersAgreeOnRandomTriples(t *testing.T) {
	ctx := context.Background()
	sch := scoring.DNADefault()
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range diffShapes {
		tr := diffTriple(sch, 5000+int64(shape[0]+2*shape[1]), shape[0], shape[1], shape[2])
		full, err := AlignParallel(ctx, tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, full, sch)

		par, err := AlignParallel(ctx, tr, sch, Options{Workers: 3, BlockSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Score != full.Score {
			t.Fatalf("AlignParallel score %d, 1-worker AlignParallel %d", par.Score, full.Score)
		}
		if len(par.Moves) != len(full.Moves) {
			t.Fatalf("AlignParallel moves differ from 1-worker AlignParallel")
		}
		for i := range par.Moves {
			if par.Moves[i] != full.Moves[i] {
				t.Fatalf("AlignParallel move %d = %v, 1-worker AlignParallel %v", i, par.Moves[i], full.Moves[i])
			}
		}

		scoreOnly, err := Score(ctx, tr, sch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if scoreOnly != full.Score {
			t.Fatalf("Score %d, 1-worker AlignParallel %d", scoreOnly, full.Score)
		}

		band, _, err := AlignBounded(ctx, tr, sch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if band.Score != full.Score {
			t.Fatalf("AlignBounded score %d, 1-worker AlignParallel %d", band.Score, full.Score)
		}

		lin, err := AlignParallelLinear(ctx, tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkAlignment(t, lin, sch)
		if lin.Score != full.Score {
			t.Fatalf("AlignParallelLinear score %d, 1-worker AlignParallel %d", lin.Score, full.Score)
		}

		diag, err := AlignDiagonal(ctx, tr, sch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if diag.Score != full.Score {
			t.Fatalf("AlignDiagonal score %d, 1-worker AlignParallel %d", diag.Score, full.Score)
		}

		if tr.A.Len()+tr.B.Len()+tr.C.Len() <= 12 {
			brute, err := BruteForceScore(tr, sch)
			if err != nil {
				t.Fatal(err)
			}
			if brute != full.Score {
				t.Fatalf("BruteForceScore %d, 1-worker AlignParallel %d", brute, full.Score)
			}
		}

		// Affine: sequential vs wavefront must share both score and moves.
		aff, err := AlignAffineParallel(ctx, tr, affSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := aff.Validate(); err != nil {
			t.Fatalf("affine alignment invalid: %v", err)
		}
		if got := QuasiNaturalScore(aff, affSch); got != aff.Score {
			t.Fatalf("QuasiNaturalScore = %d, reported Score = %d", got, aff.Score)
		}
		affPar, err := AlignAffineParallel(ctx, tr, affSch, Options{Workers: 3, BlockSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if affPar.Score != aff.Score {
			t.Fatalf("AlignAffineParallel score %d, 1-worker AlignAffineParallel %d", affPar.Score, aff.Score)
		}
		affLin, err := AlignAffineLinear(ctx, tr, affSch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if affLin.Score != aff.Score {
			t.Fatalf("AlignAffineLinear score %d, 1-worker AlignAffineParallel %d", affLin.Score, aff.Score)
		}
	}
}

// TestParallelKernelsBitIdenticalAcrossSchedules pins every parallel kernel
// to its sequential reference under the work-stealing scheduler with
// adaptive (non-cubic) tiles and across several worker counts: the schedule
// is non-deterministic, the outputs must not be. Moves are compared where
// the kernel's traceback is deterministic (the full-matrix aligners).
func TestParallelKernelsBitIdenticalAcrossSchedules(t *testing.T) {
	ctx := context.Background()
	sch := scoring.DNADefault()
	affSch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Larger shapes than diffShapes so adaptive tiles produce real grids.
	shapes := [][3]int{{14, 11, 9}, {25, 20, 30}, {40, 8, 33}}
	for _, shape := range shapes {
		tr := diffTriple(sch, 7000+int64(shape[0]+2*shape[1]), shape[0], shape[1], shape[2])
		full, err := AlignParallel(ctx, tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		aff, err := AlignAffineParallel(ctx, tr, affSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 7} {
			// BlockSize 0 selects the adaptive non-cubic tiling.
			opt := Options{Workers: w}
			par, err := AlignParallel(ctx, tr, sch, opt)
			if err != nil {
				t.Fatal(err)
			}
			if par.Score != full.Score {
				t.Fatalf("shape %v w=%d: AlignParallel score %d, 1-worker AlignParallel %d", shape, w, par.Score, full.Score)
			}
			for i := range par.Moves {
				if par.Moves[i] != full.Moves[i] {
					t.Fatalf("shape %v w=%d: AlignParallel move %d = %v, 1-worker AlignParallel %v",
						shape, w, i, par.Moves[i], full.Moves[i])
				}
			}
			affPar, err := AlignAffineParallel(ctx, tr, affSch, opt)
			if err != nil {
				t.Fatal(err)
			}
			if affPar.Score != aff.Score {
				t.Fatalf("shape %v w=%d: AlignAffineParallel score %d, 1-worker AlignAffineParallel %d", shape, w, affPar.Score, aff.Score)
			}
			for i := range affPar.Moves {
				if affPar.Moves[i] != aff.Moves[i] {
					t.Fatalf("shape %v w=%d: AlignAffineParallel move %d = %v, 1-worker AlignAffineParallel %v",
						shape, w, i, affPar.Moves[i], aff.Moves[i])
				}
			}
			band, _, err := AlignBounded(ctx, tr, sch, opt)
			if err != nil {
				t.Fatal(err)
			}
			if band.Score != full.Score {
				t.Fatalf("shape %v w=%d: AlignBounded score %d, 1-worker AlignParallel %d", shape, w, band.Score, full.Score)
			}
			linPar, err := AlignParallelLinear(ctx, tr, sch, opt)
			if err != nil {
				t.Fatal(err)
			}
			if linPar.Score != full.Score {
				t.Fatalf("shape %v w=%d: AlignParallelLinear score %d, 1-worker AlignParallel %d", shape, w, linPar.Score, full.Score)
			}
			s, err := Score(ctx, tr, sch, opt)
			if err != nil {
				t.Fatal(err)
			}
			if s != full.Score {
				t.Fatalf("shape %v w=%d: Score %d, 1-worker AlignParallel %d", shape, w, s, full.Score)
			}
		}
	}
}
