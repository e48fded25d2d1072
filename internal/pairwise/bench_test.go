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

// BenchmarkForward and BenchmarkBackward time the plane fills a bounded
// request makes six of (three forward, three suffix) at n=300.
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
		f := Forward(a, bb, sch)
		AddBackward(f, a, bb, sch)
		mat.PutPlane(f)
	}
}
