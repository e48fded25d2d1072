package plan

import (
	"context"
	"testing"

	"repro/internal/core"
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
