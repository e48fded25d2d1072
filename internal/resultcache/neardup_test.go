package resultcache

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	repro "repro"
	"repro/internal/seq"
)

// nearEntry is one entry a Nearest test put into the cache.
type nearEntry struct {
	key      Key
	meta     Meta
	score    int32
	sketch   *seq.TripleSketch
	eligible bool // same Meta as the probes and a ProbeK sketch
}

// nearDupCache fills a cache with triples at a spread of distances from a
// few ancestors, plus entries Nearest must skip: another Meta, no sketch,
// and a sketch of another k. Entries are put in slice order, so the last
// one is the most recently used. Every score is distinct.
func nearDupCache(t testing.TB, g *seq.Generator, n int) (*Cache, Meta, []nearEntry, []seq.Triple) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sch := dnaScheme()
	var ancestors []seq.Triple
	for i := 0; i < 3; i++ {
		ancestors = append(ancestors, g.RelatedTriple(n, seq.MutationModel{SubstitutionRate: 0.02}))
	}
	mutate := func(tr seq.Triple, rate float64) seq.Triple {
		m := seq.MutationModel{SubstitutionRate: rate}
		return seq.Triple{A: g.Mutate(tr.A.Name(), tr.A, m), B: g.Mutate(tr.B.Name(), tr.B, m), C: g.Mutate(tr.C.Name(), tr.C, m)}
	}
	c := New(1 << 30)
	var meta Meta
	var entries []nearEntry
	for i := 0; i < 48; i++ {
		anc := ancestors[i%len(ancestors)]
		tr := mutate(anc, []float64{0, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3}[i%8])
		tr.A = seq.MustNew(fmt.Sprintf("a%d", i), tr.A.String(), seq.DNA) // distinct keys
		algorithm, sk := "", seq.SketchTriple(tr, repro.ProbeK)
		switch i % 12 {
		case 5:
			algorithm = "full"
		case 7:
			sk = nil
		case 11:
			sk = seq.SketchTriple(tr, repro.ProbeK+1)
		}
		key, m := KeyFor(tr, sch, algorithm)
		if algorithm == "" {
			meta = m
		}
		res := quickResult(rng, tr)
		res.Score = int32(1000 + i)
		if !c.Put(key, m, res, time.Millisecond, sk) {
			t.Fatalf("entry %d refused", i)
		}
		entries = append(entries, nearEntry{key: key, meta: m, score: res.Score, sketch: sk,
			eligible: algorithm == "" && sk != nil && sk.K() == repro.ProbeK})
	}
	probes := []seq.Triple{
		ancestors[0],
		mutate(ancestors[1], 0.01),
		mutate(ancestors[2], 0.05),
		{A: ancestors[0].A, B: ancestors[1].B, C: ancestors[2].C},
		g.RelatedTriple(n, seq.MutationModel{SubstitutionRate: 0.02}),
	}
	return c, meta, entries, probes
}

// TestNearestMatchesBruteForce pins Nearest to a brute-force scan that
// scores every entry with the unpruned TripleSketch.Identity (itself
// pinned to the map-based reference profile in internal/seq). For every
// threshold — including each entry's exact identity and values within
// 1e-9 of it either way — Nearest reports a match exactly when some
// same-Meta, same-k entry reaches the threshold, and the match it returns
// is the most recently used such entry with its exact identity. So the
// early exit never drops a qualifying entry.
func TestNearestMatchesBruteForce(t *testing.T) {
	c, meta, entries, probes := nearDupCache(t, seq.NewGenerator(seq.DNA, 91), 120)
	for pi, probeTr := range probes {
		probe := seq.SketchTriple(probeTr, repro.ProbeK)
		ids := make([]float64, len(entries))
		thresholds := []float64{-1, 0, 0.5, 0.7, 0.9, 0.95, 0.99, 1, 1.01}
		for i, e := range entries {
			if e.eligible {
				ids[i] = probe.Identity(e.sketch)
				id := ids[i]
				thresholds = append(thresholds, id, math.Nextafter(id, 2), math.Nextafter(id, -1),
					id+1e-9, id-1e-9, id+5e-10, id-5e-10)
			}
		}
		for _, th := range thresholds {
			want := -1
			for i := len(entries) - 1; i >= 0; i-- { // most recently used first
				if entries[i].eligible && ids[i] >= th {
					want = i
					break
				}
			}
			cand, ok := c.Nearest(probe, meta, th)
			if ok != (want >= 0) {
				t.Fatalf("probe %d threshold %.17g: Nearest ok=%v, brute force found entry %d", pi, th, ok, want)
			}
			if !ok {
				continue
			}
			if cand.Score != entries[want].score || math.Float64bits(cand.Identity) != math.Float64bits(ids[want]) {
				t.Fatalf("probe %d threshold %.17g: got (score %d, identity %v), want entry %d (score %d, identity %v)",
					pi, th, cand.Score, cand.Identity, want, entries[want].score, ids[want])
			}
		}
	}
}

// TestNearestConcurrentWithPutGetEvict runs Nearest against a small cache
// that Put, eviction and Get keep changing; run it under -race. Scans
// copy the candidates under the lock and score them outside it, so every
// match must still carry an identity at or above the threshold.
func TestNearestConcurrentWithPutGetEvict(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 93)
	_, meta, entries, probes := nearDupCache(t, g, 60)
	rng := rand.New(rand.NewSource(8))
	results := make([]*repro.Result, len(entries))
	for i := range entries {
		tr := seq.Triple{A: seq.MustNew("a", "ACGT", seq.DNA), B: seq.MustNew("b", "ACGT", seq.DNA), C: seq.MustNew("c", "ACGT", seq.DNA)}
		results[i] = quickResult(rng, tr)
	}
	// About a dozen entries fit, so the putters evict continually.
	c := New(12 * (entryBytes(results[0], entries[0].sketch) + 512))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(3)
		go func(w int) { // putter: every Put past the budget evicts
			defer wg.Done()
			for i := 0; i < 400; i++ {
				e := entries[(i*7+w)%len(entries)]
				c.Put(e.key, e.meta, results[(i+w)%len(results)], time.Duration(i%5)*time.Millisecond, e.sketch)
			}
		}(w)
		go func(w int) { // getter: hits move entries to the front
			defer wg.Done()
			for i := 0; i < 400; i++ {
				c.Get(entries[(i*5+w)%len(entries)].key)
			}
		}(w)
		go func(w int) { // scanner
			defer wg.Done()
			for i := 0; i < 200; i++ {
				th := []float64{0.5, 0.9, 0.99}[i%3]
				probe := seq.SketchTriple(probes[(i+w)%len(probes)], repro.ProbeK)
				if cand, ok := c.Nearest(probe, meta, th); ok && cand.Identity < th {
					t.Errorf("match identity %v below threshold %v", cand.Identity, th)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions == 0 || st.Bytes > 12*(entryBytes(results[0], entries[0].sketch)+512) {
		t.Fatalf("the cache did not evict under its budget: %+v", st)
	}
}

var nearestSink bool

// BenchmarkCacheNearest is a near-duplicate prescreen miss: a probe
// unrelated to every one of 1000 same-Meta cached 300-nt triples, so the
// scan scores every entry.
func BenchmarkCacheNearest(b *testing.B) {
	g := seq.NewGenerator(seq.DNA, 95)
	rng := rand.New(rand.NewSource(9))
	c := New(1 << 30)
	var meta Meta
	for i := 0; i < 1000; i++ {
		tr := g.RelatedTriple(300, seq.MutationModel{SubstitutionRate: 0.02})
		key, m := KeyFor(tr, dnaScheme(), "")
		meta = m
		c.Put(key, m, quickResult(rng, tr), time.Millisecond, seq.SketchTriple(tr, repro.ProbeK))
	}
	probe := seq.SketchTriple(g.RelatedTriple(300, seq.MutationModel{SubstitutionRate: 0.02}), repro.ProbeK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, nearestSink = c.Nearest(probe, meta, 0.90)
	}
}
