package resultcache

import (
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/faultpoint"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// mustTriple builds a named DNA triple or fails the test.
func mustTriple(t *testing.T, a, b, c string) seq.Triple {
	t.Helper()
	tr, err := repro.NewTriple(a, b, c, seq.DNA)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mustAlign produces a real result for caching.
func mustAlign(t *testing.T, tr seq.Triple) *repro.Result {
	t.Helper()
	res, err := repro.Align(tr, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func dnaScheme() *scoring.Scheme { return scoring.DNADefault() }

func TestCachePutGetRoundTrip(t *testing.T) {
	tr := mustTriple(t, "ACGTACGTACGT", "ACGTTCGTACGT", "ACGAACGTACGT")
	res := mustAlign(t, tr)
	key, meta := KeyFor(tr, dnaScheme(), "")
	c := New(1 << 20)
	if !c.Put(key, meta, res, time.Millisecond, nil) {
		t.Fatal("Put refused a cacheable result")
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get missed a just-put key")
	}
	if got.Score != res.Score {
		t.Fatalf("cached score %d, want %d", got.Score, res.Score)
	}
	ra, rb, rc := got.Rows()
	wa, wb, wc := res.Rows()
	if ra != wa || rb != wb || rc != wc {
		t.Fatalf("cached rows differ:\n%s %s %s\nwant\n%s %s %s", ra, rb, rc, wa, wb, wc)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after hit: %+v", st)
	}
	if _, ok := c.Get(KeyFor2(t, tr)); ok {
		t.Fatal("Get hit a never-put key")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("miss not counted: %+v", st)
	}
}

// KeyFor2 derives a key guaranteed distinct from the round-trip test's.
func KeyFor2(t *testing.T, tr seq.Triple) Key {
	t.Helper()
	key, _ := KeyFor(tr, dnaScheme(), "full")
	return key
}

// TestCacheReturnsClones proves caller mutations cannot reach the stored
// entry in either direction: mutating the result after Put, or the result
// a Get returned, leaves later Gets pristine.
func TestCacheReturnsClones(t *testing.T) {
	tr := mustTriple(t, "ACGTACGT", "ACGTTCGT", "ACGAACGT")
	res := mustAlign(t, tr)
	want := res.Score
	key, meta := KeyFor(tr, dnaScheme(), "")
	c := New(1 << 20)
	c.Put(key, meta, res, time.Millisecond, nil)
	res.Score = -9999 // producer mutates after Put

	got1, ok := c.Get(key)
	if !ok || got1.Score != want {
		t.Fatalf("Get after producer mutation: ok=%v score=%d want %d", ok, got1.Score, want)
	}
	got1.Score = -4242 // consumer mutates the returned clone
	got1.Moves[0] = 7

	got2, ok := c.Get(key)
	if !ok || got2.Score != want {
		t.Fatalf("Get after consumer mutation: ok=%v score=%d want %d", ok, got2.Score, want)
	}
}

func TestCacheRefusesDegradedAndOversized(t *testing.T) {
	tr := mustTriple(t, "ACGTACGT", "ACGTTCGT", "ACGAACGT")
	res := mustAlign(t, tr)
	key, meta := KeyFor(tr, dnaScheme(), "")

	deg := *res
	deg.Degraded = true
	c := New(1 << 20)
	if c.Put(key, meta, &deg, time.Millisecond, nil) {
		t.Fatal("Put admitted a degraded result")
	}

	tiny := New(8) // smaller than any entry
	if tiny.Put(key, meta, res, time.Millisecond, nil) {
		t.Fatal("Put admitted an entry bigger than the whole budget")
	}
	if tiny.Len() != 0 || tiny.Bytes() != 0 {
		t.Fatalf("refused Put left residue: len=%d bytes=%d", tiny.Len(), tiny.Bytes())
	}
}

// TestCacheCostWeightedEviction fills a small cache with one expensive
// entry and streams cheap ones through it: the expensive entry must
// survive evictions that plain LRU would have claimed it by.
func TestCacheCostWeightedEviction(t *testing.T) {
	sch := dnaScheme()
	expensiveTr := mustTriple(t, "ACGTACGTACGTACGT", "ACGTTCGTACGTAGGT", "ACGAACGTACGTACGA")
	expensive := mustAlign(t, expensiveTr)
	expKey, expMeta := KeyFor(expensiveTr, sch, "")

	one := int64(entryBytes(expensive, nil))
	c := New(4 * one) // room for about four entries
	if !c.Put(expKey, expMeta, expensive, time.Minute, nil) {
		t.Fatal("expensive Put refused")
	}
	bases := []string{"AAAA", "CCCC", "GGGG", "TTTT"}
	for i := 0; i < 12; i++ {
		b := bases[i%4] + bases[(i/4)%4]
		tr := mustTriple(t, strings.Repeat(b, 2), strings.Repeat(b, 2), b+"ACGTACGT")
		res := mustAlign(t, tr)
		key, meta := KeyFor(tr, sch, "")
		c.Put(key, meta, res, time.Microsecond, nil)
		if got := c.Bytes(); got > 4*one {
			t.Fatalf("bytes gauge %d over budget %d after put %d", got, 4*one, i)
		}
	}
	if _, ok := c.Get(expKey); !ok {
		t.Fatal("cost-weighted eviction dropped the expensive entry")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, got %+v", st)
	}
}

func TestCacheNilIsDisabled(t *testing.T) {
	var c *Cache
	if c != New(0) || New(-1) != nil {
		t.Fatal("non-positive budgets must build nil caches")
	}
	tr := mustTriple(t, "ACGT", "ACGT", "ACGT")
	key, meta := KeyFor(tr, dnaScheme(), "")
	if c.Put(key, meta, &repro.Result{}, 0, nil) {
		t.Fatal("nil cache admitted an entry")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("nil cache returned a hit")
	}
	if _, ok := c.Nearest(nil, meta, 0.5); ok {
		t.Fatal("nil cache returned a near-dup")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

// TestCacheChaosGetCorruption arms the in-cache corruption fault and
// proves the checksum converts it into a dropped entry and a miss — the
// cache never serves the corrupted score.
func TestCacheChaosGetCorruption(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	tr := mustTriple(t, "ACGTACGTACGT", "ACGTTCGTACGT", "ACGAACGTACGT")
	res := mustAlign(t, tr)
	key, meta := KeyFor(tr, dnaScheme(), "")
	c := New(1 << 20)
	c.Put(key, meta, res, time.Millisecond, nil)

	if err := faultpoint.Arm("resultcache.get.corrupt", "nth:1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("Get served a corrupted entry")
	}
	st := c.Stats()
	if st.CorruptDropped != 1 || st.Entries != 0 {
		t.Fatalf("corrupted entry not dropped: %+v", st)
	}
	// The slot recovers: a fresh Put serves the correct score again.
	c.Put(key, meta, res, time.Millisecond, nil)
	got, ok := c.Get(key)
	if !ok || got.Score != res.Score {
		t.Fatalf("recovery Get: ok=%v score=%d want %d", ok, got.Score, res.Score)
	}
}

// TestCacheChaosPutCorruption arms corruption at admission: the checksum
// is computed before the fault lands, so the first Get detects and drops.
func TestCacheChaosPutCorruption(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	tr := mustTriple(t, "ACGTACGTACGT", "ACGTTCGTACGT", "ACGAACGTACGT")
	res := mustAlign(t, tr)
	key, meta := KeyFor(tr, dnaScheme(), "")
	c := New(1 << 20)

	if err := faultpoint.Arm("resultcache.put.corrupt", "nth:1"); err != nil {
		t.Fatal(err)
	}
	if !c.Put(key, meta, res, time.Millisecond, nil) {
		t.Fatal("Put refused")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("Get served an entry corrupted during Put")
	}
	if st := c.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("put-corruption not detected: %+v", st)
	}
}

// TestNearDupNearestFindsSimilarTriple caches one triple with its sketch
// and probes with a single-substitution variant: Nearest must find it with
// high identity, and must not cross Meta boundaries (a different scheme or
// algorithm request never serves as a seed donor).
func TestNearDupNearestFindsSimilarTriple(t *testing.T) {
	base := strings.Repeat("ACGTTGCAAGCT", 8)
	tr := mustTriple(t, base, base, base)
	res := mustAlign(t, tr)
	sch := dnaScheme()
	key, meta := KeyFor(tr, sch, "")
	sk := seq.SketchTriple(tr, repro.ProbeK)
	c := New(1 << 20)
	c.Put(key, meta, res, time.Millisecond, sk)

	sub := "T"
	if base[40] == 'T' {
		sub = "A"
	}
	mutated := base[:40] + sub + base[41:]
	if mutated == base {
		t.Fatal("test bug: the substitution did not change the sequence")
	}
	probeTr := mustTriple(t, mutated, base, base)
	probe := seq.SketchTriple(probeTr, repro.ProbeK)

	cand, ok := c.Nearest(probe, meta, 0.90)
	if !ok {
		t.Fatal("Nearest missed a 1-substitution neighbour")
	}
	if cand.Score != res.Score {
		t.Fatalf("candidate score %d, want cached %d", cand.Score, res.Score)
	}
	if cand.Identity < 0.90 || cand.Identity > 1 {
		t.Fatalf("identity %v out of range", cand.Identity)
	}

	_, otherMeta := KeyFor(tr, sch, "full")
	if _, ok := c.Nearest(probe, otherMeta, 0.5); ok {
		t.Fatal("Nearest crossed a Meta boundary")
	}
	if _, ok := c.Nearest(probe, meta, 0.9999); ok {
		t.Fatal("Nearest ignored the identity threshold")
	}
}
