package core

import (
	"context"
	"testing"

	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// Kernel micro-benchmarks: raw cell rates of the inner DP loops,
// independent of scheduling and traceback. Benchmarks whose names contain
// "Interior" run against prebuilt tables and buffers and must not allocate;
// the CI bench-smoke job enforces 0 allocs/op on them. The experiment-level
// benchmarks live in the repository root.

func benchCodes(n int) ([]int8, []int8, []int8) {
	g := seq.NewGenerator(seq.DNA, 4321)
	tr := g.RelatedTriple(n, seq.MutationModel{SubstitutionRate: 0.3})
	return tr.A.Codes(), tr.B.Codes(), tr.C.Codes()
}

func fullSpans(ca, cb, cc []int8) (si, sj, sk wavefront.Span) {
	return wavefront.Span{Lo: 0, Hi: len(ca) + 1},
		wavefront.Span{Lo: 0, Hi: len(cb) + 1},
		wavefront.Span{Lo: 0, Hi: len(cc) + 1}
}

// BenchmarkKernelFillRange measures the full sequential fill path: score
// tables and lane state built per iteration, lattice from the arena, then
// the peeled lane-packed kernel over the whole box.
func BenchmarkKernelFillRange(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	si, sj, sk := fullSpans(ca, cb, cc)
	cells := int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newScoreTables(ca, cb, cc, sch)
		t := mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
		var lv laneVec
		initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())
		fillRangePacked(t, st, 2*sch.GapExtend(), si, sj, sk, &lv)
		mat.PutTensor3(t)
		st.release()
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// benchInteriorOf is the shared body of the width-variant interior
// benchmarks: tables, lane state and lattice prebuilt at cell width T, the
// fill timed alone, so the loop body must not allocate.
func benchInteriorOf[T mat.Cell](b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	st := newScoreTablesOf[T](ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3Of[T](len(ca)+1, len(cb)+1, len(cc)+1)
	defer mat.PutTensor3Of(t)
	ge2 := T(2 * sch.GapExtend())
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, ge2)
	si, sj, sk := fullSpans(ca, cb, cc)
	cells := int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillRangePacked(t, st, ge2, si, sj, sk, &lv)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkKernelFillRangePackedInterior measures the lane-packed interior
// at Score width.
func BenchmarkKernelFillRangePackedInterior(b *testing.B) {
	benchInteriorOf[mat.Score](b)
}

// BenchmarkKernelFillRangePackedInterior16 measures the lane-packed
// interior on an int16 lattice — the planner's preferred sequential kernel
// when the score bound allows narrowing.
func BenchmarkKernelFillRangePackedInterior16(b *testing.B) {
	benchInteriorOf[int16](b)
}

// benchAffineInterior measures the grouped-open affine lane pass over a
// triple's whole box with a prebuilt pair profile and lattices. The fill writes
// every cell but the seeded origin, so the lattices are reused across
// iterations.
func benchAffineInterior(b *testing.B, ca, cb, cc []int8, sch *scoring.Scheme) {
	f := newAffineFill(ca, cb, cc, sch)
	defer f.release()
	var d [7]*mat.Tensor3
	for s := 0; s < 7; s++ {
		d[s] = mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
		defer mat.PutTensor3(d[s])
	}
	seedAffineOrigin(&d, 7)
	si, sj, sk := fullSpans(ca, cb, cc)
	cells := int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1) * 7
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillRangeAffine(&d, &f, si, sj, sk)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkKernelAffineInterior measures the affine interior on an n=32
// DNA triple under a -4/-1 gap model.
func BenchmarkKernelAffineInterior(b *testing.B) {
	ca, cb, cc := benchCodes(32)
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	benchAffineInterior(b, ca, cb, cc, sch)
}

// BenchmarkKernelAffineInteriorProtein measures the affine interior at the
// shape of a progressive-MSA merge: an n=72 BLOSUM62 triple under the
// scheme's default -11/-1 gaps.
func BenchmarkKernelAffineInteriorProtein(b *testing.B) {
	g := seq.NewGenerator(seq.Protein, 4321)
	tr := g.RelatedTriple(72, seq.MutationModel{SubstitutionRate: 0.3})
	benchAffineInterior(b, tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), scoring.BLOSUM62())
}

// BenchmarkKernelPlaneSweepInterior measures one packed plane fill with
// prebuilt planes, profile, and lane state — the steady-state inner work of
// the linear-space kernels. Covered by the CI zero-alloc gate.
func BenchmarkKernelPlaneSweepInterior(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	m, p := len(cb), len(cc)
	prev := mat.GetPlane(m+1, p+1)
	defer mat.PutPlane(prev)
	cur := mat.GetPlane(m+1, p+1)
	defer mat.PutPlane(cur)
	prof := newPairProfile(cc, sch)
	defer prof.release()
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, 2*sch.GapExtend())
	sj := wavefront.Span{Lo: 0, Hi: m + 1}
	sk := wavefront.Span{Lo: 0, Hi: p + 1}
	fillPlaneRangePacked(prev, nil, 0, cb, sch, prof, sj, sk, &lv)
	cells := int64(m+1) * int64(p+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillPlaneRangePacked(cur, prev, ca[0], cb, sch, prof, sj, sk, &lv)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkKernelPlaneSweep(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		final, err := planeSweep(context.Background(), ca, cb, cc, sch, 1, DefaultBlockSize, DefaultBlockSize)
		if err != nil {
			b.Fatal(err)
		}
		mat.PutPlane(final)
	}
}

func BenchmarkKernelTraceback(b *testing.B) {
	ca, cb, cc := benchCodes(64)
	sch := scoring.DNADefault()
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3(len(ca)+1, len(cb)+1, len(cc)+1)
	defer mat.PutTensor3(t)
	si, sj, sk := fullSpans(ca, cb, cc)
	fillRangePacked(t, st, 2*sch.GapExtend(), si, sj, sk, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracebackTensor(t, ca, cb, cc, sch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelAffineFill(b *testing.B) {
	ca, cb, cc := benchCodes(32)
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := affineDPMoves(context.Background(), ca, cb, cc, sch, Options{Workers: 1}, 7, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelBandLaneInterior measures the band fill's lanes alone:
// the band of a 300×300×300 DNA triple at about 70% identity, planned at
// its optimum, filled lane by lane from C's query profile into a prebuilt
// band, as Band.Fill's blocks run them. Covered by the CI zero-alloc
// gate.
func BenchmarkKernelBandLaneInterior(b *testing.B) {
	tr := seq.NewGenerator(seq.DNA, 7000).TripleWithLengths(300, 300, 300,
		seq.MutationModel{SubstitutionRate: 0.16, InsertionRate: 0.04, DeletionRate: 0.04})
	sch := scoring.DNADefault()
	ref, err := AlignParallelLinear(context.Background(), tr, sch, Options{})
	if err != nil {
		b.Fatal(err)
	}
	pre, err := NewPrefix(tr, sch, pairwise.Planes{}, ref.Score, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer pre.Release()
	bp := pre.Plan(ref.Score)
	n, m, q := tr.A.Len(), tr.B.Len(), tr.C.Len()
	band := mat.NewBandTensor3(n+1, m+1, q+1, bp.jLo, bp.jHi, bp.kLo, bp.kHi)
	defer band.Release()
	prof := newPairProfile(pre.cc, sch)
	defer prof.release()
	f := &bandFill{band: band, prof: prof, ca: pre.ca, cb: pre.cb, sch: sch, ge2: 2 * sch.GapExtend()}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := 0; i <= n; i++ {
			up, row := band.Row(i-1), band.Row(i)
			for j := int(bp.jLo[i]); j < int(bp.jHi[i]); j++ {
				f.lane(up, row, i, j)
			}
		}
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(band.Cells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
