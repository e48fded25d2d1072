package pairwise

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// Micro-benchmarks of the pairwise kernels; the experiment-level
// benchmarks live in the repository root.

func benchPair(n int) (a, b []int8) {
	g := seq.NewGenerator(seq.DNA, 1234)
	parent := g.Random("p", n)
	child := g.Mutate("c", parent, seq.MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.03, DeletionRate: 0.03})
	return parent.Codes(), child.Codes()
}

var pairSink mat.Score

func BenchmarkGlobal(b *testing.B) {
	a, bb := benchPair(500)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairSink = Global(a, bb, sch).Score
	}
}

func BenchmarkGlobalScoreOnly(b *testing.B) {
	a, bb := benchPair(500)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairSink = GlobalScore(a, bb, sch)
	}
}

func BenchmarkHirschberg(b *testing.B) {
	a, bb := benchPair(500)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairSink = Hirschberg(a, bb, sch).Score
	}
}

func BenchmarkGlobalAffine(b *testing.B) {
	a, bb := benchPair(500)
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairSink = GlobalAffine(a, bb, sch).Score
	}
}

func BenchmarkGlobalAffineScore(b *testing.B) {
	a, bb := benchPair(500)
	sch, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairSink = GlobalAffineScore(a, bb, sch)
	}
}

// BenchmarkForward and BenchmarkBackward time full plane fills at n=300:
// the widest a bounded request's banded pair sweeps get, on a triple
// whose bands cover the whole plane.
func BenchmarkForward(b *testing.B) {
	a, bb := benchPair(300)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.PutPlane(Forward(a, bb, sch))
	}
}

func BenchmarkBackward(b *testing.B) {
	a, bb := benchPair(300)
	sch := scoring.DNADefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.PutPlane(Backward(a, bb, sch))
	}
}

// BenchmarkBandedSweepInterior times the banded row loops of one pair of a
// fresh bounded miss: the forward and the trimmed suffix sweep of a
// 300-residue pair at 98% identity, in the band of a threshold 20 below
// its optimum, into a prebuilt plane and two prebuilt rolling rows.
// Covered by the CI zero-alloc gate.
func BenchmarkBandedSweepInterior(b *testing.B) {
	g := seq.NewGenerator(seq.DNA, 98)
	parent := g.Random("p", 300)
	child := g.Mutate("c", parent, seq.MutationModel{SubstitutionRate: 0.02, InsertionRate: 0.005, DeletionRate: 0.005})
	a, bb := parent.Codes(), child.Codes()
	sch := scoring.DNADefault()
	f := Forward(a, bb, sch)
	defer mat.PutPlane(f)
	prof := newProfile(bb, sch)
	defer prof.release()
	rows := [2][]mat.Score{mat.GetScores(len(bb) + 1), mat.GetScores(len(bb) + 1)}
	defer mat.PutScores(rows[0])
	defer mat.PutScores(rows[1])
	th := f.At(len(a), len(bb)) - 20
	band := NewReach(len(a), len(bb), sch).Band(th)
	ge := sch.GapExtend()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardBand(f, a, prof, ge, band)
		suffixBand(f, a, prof, ge, band, th, rows)
	}
	b.StopTimer() // the deferred releases are not the loop's
}
