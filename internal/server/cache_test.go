package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// cacheConfig is a small-but-real cache setup for the HTTP-level tests.
func cacheConfig() Config {
	return Config{CacheBytes: 1 << 20, CoalesceTick: -1}
}

// TestCacheHitServesIdenticalResultAndHeader: the second identical request
// must be a hit — same score and rows, X-Cache flips miss → hit, and the
// statsz counters account for exactly one fill.
func TestCacheHitServesIdenticalResultAndHeader(t *testing.T) {
	_, ts := newTestServer(t, cacheConfig())
	a, b, c := testTriple(t, 101, 40)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)

	var first, second AlignResponse
	r1 := postJSON(t, ts, "/v1/align", body, &first)
	r2 := postJSON(t, ts, "/v1/align", body, &second)
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200", r1.StatusCode, r2.StatusCode)
	}
	if got := r1.Header.Get("X-Cache"); got != cacheStateMiss {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	if got := r2.Header.Get("X-Cache"); got != cacheStateHit {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if first.Cache != cacheStateMiss || second.Cache != cacheStateHit {
		t.Errorf("body cache fields %q/%q, want miss/hit", first.Cache, second.Cache)
	}
	if first.Score != second.Score || first.Rows != second.Rows || first.Names != second.Names {
		t.Fatalf("hit differs from the computed result:\n%+v\n%+v", first, second)
	}
	if first.Score != directScore(t, a, b, c) {
		t.Fatalf("served score %d != library score", first.Score)
	}

	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.CacheHits != 1 || st.CacheFills != 1 || st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Fatalf("cache counters: %+v", st)
	}
	if st.CacheMisses < 1 {
		t.Fatalf("cache_misses = %d, want >= 1", st.CacheMisses)
	}
}

// TestCacheHitBypassesAdmission: with the whole admission queue held, a
// cached request still answers 200 while a fresh one sheds 429.
func TestCacheHitBypassesAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 1 << 20, QueueDepth: 2, MaxInFlight: 1, CoalesceTick: -1})
	a, b, c := testTriple(t, 103, 30)
	cached := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)
	if resp := postJSON(t, ts, "/v1/align", cached, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d", resp.StatusCode)
	}

	for i := 0; i < 2; i++ {
		if !s.gate.tryAdmit() {
			t.Fatalf("admission slot %d unavailable", i)
		}
	}
	defer func() {
		s.gate.releaseAdmit()
		s.gate.releaseAdmit()
	}()

	x, y, z := testTriple(t, 104, 30)
	fresh := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, x, y, z)
	if resp := postJSON(t, ts, "/v1/align", fresh, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fresh request under full queue: status %d, want 429", resp.StatusCode)
	}
	resp := postJSON(t, ts, "/v1/align", cached, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request under full queue: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != cacheStateHit {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
}

// TestCacheSingleflightCollapsesFlood floods identical concurrent requests
// at a one-slot server: every response is a 200 with the same score, the
// kernel ran exactly once (one fill), and all but the leader collapsed.
func TestCacheSingleflightCollapsesFlood(t *testing.T) {
	const n = 8
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20, QueueDepth: 1, MaxInFlight: 1, Workers: 2, CoalesceTick: -1})
	a, b, c := testTriple(t, 105, 120)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)

	var wg sync.WaitGroup
	scores := make([]int32, n)
	states := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out AlignResponse
			resp := postJSON(t, ts, "/v1/align", body, &out)
			codes[i], scores[i], states[i] = resp.StatusCode, out.Score, out.Cache
		}(i)
	}
	wg.Wait()

	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.CacheFills != 1 {
		t.Fatalf("cache_fills = %d, want exactly 1 kernel run for %d identical requests", st.CacheFills, n)
	}
	// A request that races in while the leader computes collapses onto the
	// flight; one that arrives after the fill hits the cache. Either way the
	// kernel ran once and nobody else paid for it.
	if free := st.CacheCollapsed + st.CacheHits; free < n-1 {
		t.Fatalf("collapsed %d + hits %d = %d, want >= %d", st.CacheCollapsed, st.CacheHits, free, n-1)
	}
	want := directScore(t, a, b, c)
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || scores[i] != want {
			t.Fatalf("request %d: code %d score %d (state %q), want 200/%d", i, codes[i], scores[i], states[i], want)
		}
	}
}

// TestCacheNearDupPatchUp primes the cache with one triple, then requests
// a single-substitution variant. The near-duplicate patch-up is retired,
// so the variant is an ordinary miss: X-Cache says miss, the score and
// rows equal an uncached control's, and cache_near_dup_patched stays 0.
// A client that pinned a kernel ("full", an alias of parallel) is served
// by that kernel.
func TestCacheNearDupPatchUp(t *testing.T) {
	base := strings.Repeat("ACGTTGCAAGCTGGATCCAT", 6)
	varB := base[:50] + "G" + base[51:]
	sub := "C"
	if base[30] == 'C' {
		sub = "G"
	}
	mutA := base[:30] + sub + base[31:]
	if mutA == base {
		t.Fatal("test bug: substitution did not change the sequence")
	}
	for _, c := range []struct{ name, algorithm, ran string }{
		{"auto", "", ""},
		{"full", "full", "parallel"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, ts := newTestServer(t, cacheConfig())
			body := func(a string) string {
				return fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"algorithm":%q}`, a, varB, base, c.algorithm)
			}
			if resp := postJSON(t, ts, "/v1/align", body(base), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("prime: status %d", resp.StatusCode)
			}
			var out AlignResponse
			resp := postJSON(t, ts, "/v1/align", body(mutA), &out)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("near-dup: status %d", resp.StatusCode)
			}
			if got := resp.Header.Get("X-Cache"); got != cacheStateMiss || out.Cache != cacheStateMiss {
				t.Fatalf("X-Cache = %q, body cache %q, want miss", got, out.Cache)
			}
			if c.ran != "" && out.Algorithm != c.ran {
				t.Fatalf("explicit algorithm=%s served by %q, want %s", c.algorithm, out.Algorithm, c.ran)
			}

			// Uncached control: same variant on a cache-less server.
			_, control := newTestServer(t, Config{CoalesceTick: -1})
			var ctl AlignResponse
			if resp := postJSON(t, control, "/v1/align", body(mutA), &ctl); resp.StatusCode != http.StatusOK {
				t.Fatalf("control: status %d", resp.StatusCode)
			}
			if out.Score != ctl.Score || out.Rows != ctl.Rows {
				t.Fatalf("near-dup result differs from uncached control:\n%+v\n%+v", out, ctl)
			}

			var st Statsz
			getJSON(t, ts, "/statsz", &st)
			if st.CacheNearDupPatched != 0 {
				t.Fatalf("cache_near_dup_patched = %d, want 0", st.CacheNearDupPatched)
			}
		})
	}
}

// TestCacheMinCostFloor: with an impossible cost floor nothing is
// admitted to the cache, so identical requests keep missing.
func TestCacheMinCostFloor(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20, CacheMinCost: time.Hour, CoalesceTick: -1})
	a, b, c := testTriple(t, 107, 30)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)
	r1 := postJSON(t, ts, "/v1/align", body, nil)
	r2 := postJSON(t, ts, "/v1/align", body, nil)
	if r1.Header.Get("X-Cache") != cacheStateMiss || r2.Header.Get("X-Cache") != cacheStateMiss {
		t.Fatalf("X-Cache %q/%q, want miss/miss under an unreachable cost floor",
			r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.CacheEntries != 0 || st.CacheHits != 0 {
		t.Fatalf("cost floor leaked entries: %+v", st)
	}
}

// TestCacheKeyDistinguishesOptionsThatMatter: scheme and algorithm are
// part of the key; workers and deadline are not.
func TestCacheKeyDistinguishesOptionsThatMatter(t *testing.T) {
	_, ts := newTestServer(t, cacheConfig())
	a, b, c := testTriple(t, 109, 24)
	post := func(extra string) string {
		resp := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q%s}`, a, b, c, extra), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for extra %q", resp.StatusCode, extra)
		}
		return resp.Header.Get("X-Cache")
	}
	if got := post(""); got != cacheStateMiss {
		t.Fatalf("first: %q", got)
	}
	// Execution knobs that cannot change the exact result hit anyway.
	if got := post(`,"workers":1`); got != cacheStateHit {
		t.Errorf("different workers: %q, want hit", got)
	}
	if got := post(`,"deadline_ms":25000`); got != cacheStateHit {
		t.Errorf("different deadline: %q, want hit", got)
	}
	// Semantic knobs miss.
	if got := post(`,"algorithm":"full"`); got != cacheStateMiss {
		t.Errorf("different algorithm: %q, want miss", got)
	}
}

// TestCacheChaosLeaderPanicServes500AndRecovers: an armed flight-panic
// fault must surface as a typed 500 counted in panics_contained — and the
// very next identical request must compute and cache normally.
func TestCacheChaosLeaderPanicServes500AndRecovers(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := newTestServer(t, cacheConfig())
	if err := faultpoint.Arm("resultcache.flight.panic", "nth:1"); err != nil {
		t.Fatal(err)
	}
	a, b, c := testTriple(t, 111, 30)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)
	var out errorResponse
	resp := postJSON(t, ts, "/v1/align", body, &out)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked leader: status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(out.Error, "flight leader") {
		t.Fatalf("error %q does not name the flight panic", out.Error)
	}
	var ok AlignResponse
	if resp := postJSON(t, ts, "/v1/align", body, &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d", resp.StatusCode)
	}
	if ok.Score != directScore(t, a, b, c) {
		t.Fatalf("post-panic score %d != library score", ok.Score)
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.PanicsContained < 1 || st.Failed < 1 {
		t.Fatalf("panic not accounted: %+v", st)
	}
}

// TestCacheChaosCorruptEntryRecomputes: with put-corruption armed, the
// poisoned entry must never be served — the next identical request drops
// it, recomputes, and still returns the exact score.
func TestCacheChaosCorruptEntryRecomputes(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := newTestServer(t, cacheConfig())
	if err := faultpoint.Arm("resultcache.put.corrupt", "nth:1"); err != nil {
		t.Fatal(err)
	}
	a, b, c := testTriple(t, 113, 30)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)
	want := directScore(t, a, b, c)

	var first, second AlignResponse
	postJSON(t, ts, "/v1/align", body, &first)
	r2 := postJSON(t, ts, "/v1/align", body, &second)
	if first.Score != want || second.Score != want {
		t.Fatalf("scores %d/%d, want %d — a corrupted entry leaked", first.Score, second.Score, want)
	}
	if got := r2.Header.Get("X-Cache"); got == cacheStateHit {
		t.Fatal("corrupted entry served as a hit")
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.CacheCorruptDropped < 1 {
		t.Fatalf("cache_corrupt_dropped = %d, want >= 1", st.CacheCorruptDropped)
	}
}

// TestCacheDisabledHasNoHeader: the default (cache off) path must not
// grow an X-Cache header or cache body field.
func TestCacheDisabledHasNoHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	a, b, c := testTriple(t, 115, 20)
	var out AlignResponse
	resp := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Cache"); h != "" || out.Cache != "" {
		t.Fatalf("cache-disabled response carries cache state %q/%q", h, out.Cache)
	}
}
