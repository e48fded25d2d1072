package plan

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// BenchmarkBoundedFresh98 times one bounded request as the planner runs
// it — the center-star-refined seed plus the band fill — on fresh
// 98%-identity triples of 290–310 residues at 1 worker: the cache-miss
// work of alignbench's align-repeat-cached workload. One op is one
// triple; the 40 triples cycle.
func BenchmarkBoundedFresh98(b *testing.B) {
	sch := scoring.DNADefault()
	spec, ok := Lookup("bounded")
	if !ok {
		b.Fatal("no bounded kernel registered")
	}
	trs := make([]seq.Triple, 40)
	for s := range trs {
		trs[s] = seq.NewGenerator(seq.DNA, int64(9000+s)).RelatedTriple(290+s%21, seq.Uniform(0.01))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spec.Run(ctx, trs[i%len(trs)], sch, core.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandedSweeps98 times the pair sweeps of a fresh bounded miss at
// 2 workers, on BenchmarkBoundedFresh98's triples: the three forward
// sweeps, widened until they certify their optima, and the three suffix
// sweeps in the bands of the center-star bound (NewPrefix), without the
// seed itself. One op is one triple; the 40 triples cycle.
func BenchmarkBandedSweeps98(b *testing.B) {
	sch := scoring.DNADefault()
	const workers = 2
	trs := make([]seq.Triple, 40)
	stars := make([]mat.Score, len(trs))
	for s := range trs {
		tr := seq.NewGenerator(seq.DNA, int64(9000+s)).RelatedTriple(290+s%21, seq.Uniform(0.01))
		fwd := pairwise.Forwards(tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), sch, workers)
		star, _, err := msa.CenterStarOn(tr, sch, fwd)
		fwd.Release()
		if err != nil {
			b.Fatal(err)
		}
		trs[s], stars[s] = tr, star.Score
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trs[i%len(trs)]
		fwd := pairwise.Forwards(tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), sch, workers)
		pre, err := core.NewPrefix(tr, sch, fwd, stars[i%len(trs)], workers)
		if err != nil {
			b.Fatal(err)
		}
		pre.Release()
	}
}

// BenchmarkBandFirstLarge70 times one automatic request as alignd runs an
// align-large-closed one: a 300×300×300 DNA triple at 16% substitution
// with indels at a quarter of that (about 70% pairwise identity), planned
// by Resolve at 2 workers and run through RunBandFirst: the banded pair
// sweeps, the center-star-refined seed, band planning and the band fill. One op
// is one triple; the 12 triples cycle.
func BenchmarkBandFirstLarge70(b *testing.B) {
	sch := scoring.DNADefault()
	trs := make([]seq.Triple, 12)
	for s := range trs {
		trs[s] = seq.NewGenerator(seq.DNA, int64(7000+s)).TripleWithLengths(300, 300, 300,
			seq.MutationModel{SubstitutionRate: 0.16, InsertionRate: 0.04, DeletionRate: 0.04})
	}
	const workers = 2
	pl, _, err := Resolve(Request{Shape: Shape{NA: 300, NB: 300, NC: 300}, Workers: workers, MaxAbsColumn: core.MaxAbsColumn(sch)})
	if err != nil {
		b.Fatal(err)
	}
	if pl.Fallback == "" {
		b.Fatalf("plan %s is not band first", pl.Algorithm)
	}
	opt := core.Options{Workers: workers, TileDims: pl.TileDims, CellWidth: pl.CellWidthBits}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RunBandFirst(ctx, pl, trs[i%len(trs)], sch, opt); err != nil {
			b.Fatal(err)
		}
	}
}
