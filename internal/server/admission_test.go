package server

// Tests for the admission pipeline every kernel-bound request passes:
// pressure, plan with the lattice cap, the admission slot, the in-flight
// byte gauge, the run slot, and the accounting around them. Each test runs
// the same checks over every endpoint that reaches a kernel, so the four
// paths cannot drift apart.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// admissionPath is one way a request reaches the pipeline: an endpoint, the
// server configuration that routes to it, and how a body is built around
// one triple plus extra JSON fields (a leading comma, or empty).
type admissionPath struct {
	name  string
	cfg   Config
	path  string
	body  func(a, b, c, extra string) string
	items int64 // results one successful request answers
}

func alignBody(a, b, c, extra string) string {
	return fmt.Sprintf(`{"a":%q,"b":%q,"c":%q%s}`, a, b, c, extra)
}

// admissionPaths lists the four kernel-bound paths: uncached /v1/align, a
// cache miss on /v1/align (the flight leader), /v1/align/batch and
// /v1/msa. Each server has two queue slots, one run slot, and a lattice
// cap a 600-residue full lattice exceeds.
func admissionPaths() []admissionPath {
	cfg := Config{QueueDepth: 2, MaxInFlight: 1, Workers: 2, CoalesceTick: -1, MaxLatticeBytes: 1 << 27}
	cached := cfg
	cached.CacheBytes = 1 << 20
	return []admissionPath{
		{"align", cfg, "/v1/align", alignBody, 1},
		{"align-cached-miss", cached, "/v1/align", alignBody, 1},
		{"batch", cfg, "/v1/align/batch", func(a, b, c, extra string) string {
			item := alignBody(a, b, c, extra)
			return `{"items":[` + item + `,` + item + `]}`
		}, 2},
		{"msa", cfg, "/v1/msa", func(a, b, c, extra string) string {
			return fmt.Sprintf(`{"sequences":[%q,%q,%q]%s}`, a, b, c, extra)
		}, 1},
	}
}

// statszDelta posts body to path and returns the response with the
// /statsz document taken before and after it.
func statszDelta(t *testing.T, ts *httptest.Server, path, body string) (resp *http.Response, before, after Statsz) {
	t.Helper()
	getJSON(t, ts, "/statsz", &before)
	resp = postJSON(t, ts, path, body, nil)
	getJSON(t, ts, "/statsz", &after)
	return resp, before, after
}

// TestAdmissionAccounting drives each kernel-bound path through success,
// a success degraded by a memory cap, an over-cap plan and a full queue, and
// checks the status and the /statsz accounting of each: a full queue
// answers 429 with Retry-After and counts one shed; an over-cap plan
// answers 413 even while the queue is full, so it never took a slot;
// completed and degraded count each result; and est_bytes_in_flight is
// back at 0 after every request.
func TestAdmissionAccounting(t *testing.T) {
	for i, p := range admissionPaths() {
		t.Run(p.name, func(t *testing.T) {
			s, ts := newTestServer(t, p.cfg)
			seed := int64(200 + 10*i)

			a, b, c := testTriple(t, seed, 20)
			resp, before, after := statszDelta(t, ts, p.path, p.body(a, b, c, ""))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("small request: status %d, want 200", resp.StatusCode)
			}
			if got := after.Completed - before.Completed; got != p.items {
				t.Errorf("small request: completed +%d, want +%d", got, p.items)
			}
			if got := after.Degraded - before.Degraded; got != 0 {
				t.Errorf("small request: degraded +%d, want +0", got)
			}
			if after.EstBytesInFlight != 0 {
				t.Errorf("small request: est_bytes_in_flight = %d after it answered", after.EstBytesInFlight)
			}

			// A 4 KiB hard cap refuses a 40-residue full lattice; fallback
			// (the server default) answers a degraded 200.
			a, b, c = testTriple(t, seed+1, 40)
			resp, before, after = statszDelta(t, ts, p.path, p.body(a, b, c, `,"algorithm":"full","max_bytes":4096`))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("capped request: status %d, want a degraded 200", resp.StatusCode)
			}
			if got := after.Completed - before.Completed; got != p.items {
				t.Errorf("capped request: completed +%d, want +%d", got, p.items)
			}
			if got := after.Degraded - before.Degraded; got != p.items {
				t.Errorf("capped request: degraded +%d, want +%d", got, p.items)
			}
			if after.EstBytesInFlight != 0 {
				t.Errorf("capped request: est_bytes_in_flight = %d after it answered", after.EstBytesInFlight)
			}

			for k := 0; k < p.cfg.QueueDepth; k++ {
				if !s.gate.tryAdmit() {
					t.Fatalf("admission slot %d unavailable", k)
				}
			}
			big := seqN(600)
			resp, before, after = statszDelta(t, ts, p.path, p.body(big, big, big, `,"algorithm":"full"`))
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("over-cap request on a full queue: status %d, want 413", resp.StatusCode)
			}
			if after.Shed != before.Shed || after.Failed != before.Failed+1 {
				t.Errorf("over-cap request: shed +%d failed +%d, want +0 and +1",
					after.Shed-before.Shed, after.Failed-before.Failed)
			}

			a, b, c = testTriple(t, seed+2, 20)
			resp, before, after = statszDelta(t, ts, p.path, p.body(a, b, c, ""))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("request on a full queue: status %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without a Retry-After hint")
			}
			if after.Shed != before.Shed+1 || after.Failed != before.Failed {
				t.Errorf("request on a full queue: shed +%d failed +%d, want +1 and +0",
					after.Shed-before.Shed, after.Failed-before.Failed)
			}
			for k := 0; k < p.cfg.QueueDepth; k++ {
				s.gate.releaseAdmit()
			}
			if after.EstBytesInFlight != 0 || after.Completed != before.Completed {
				t.Errorf("refused requests moved est_bytes_in_flight to %d, completed by %d",
					after.EstBytesInFlight, after.Completed-before.Completed)
			}
		})
	}
}

// TestPressureDegradeCountedOncePerAdmission forces the degrade level on
// every admission: mem_pressure_degraded moves by one per request, and a
// batch, being one admission, counts once however many items it has.
func TestPressureDegradeCountedOncePerAdmission(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("server.pressure.degrade", "always"); err != nil {
		t.Fatal(err)
	}
	for i, p := range admissionPaths() {
		t.Run(p.name, func(t *testing.T) {
			_, ts := newTestServer(t, p.cfg)
			a, b, c := testTriple(t, int64(300+i), 20)
			body := p.body(a, b, c, "")
			if p.name == "batch" {
				body = `{"items":[` + strings.Repeat(alignBody(a, b, c, "")+",", 2) + alignBody(a, b, c, "") + `]}`
			}
			resp, before, after := statszDelta(t, ts, p.path, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			if got := after.MemPressureDegraded - before.MemPressureDegraded; got != 1 {
				t.Errorf("mem_pressure_degraded +%d, want +1 for one admission", got)
			}
		})
	}
}

// TestRunQueueCancelCountsFailed holds the only run slot, sends one
// request per kernel-bound path, and cancels it while it waits in the run
// queue: each is counted as failed, and its admission slot is returned.
// A cache-flight leader waits under the server's base context, which no
// client can cancel, so the cached path is left out.
func TestRunQueueCancelCountsFailed(t *testing.T) {
	for i, p := range admissionPaths() {
		if p.cfg.CacheBytes > 0 {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			s, ts := newTestServer(t, p.cfg)
			if err := s.gate.acquireRun(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer s.gate.releaseRun()
			var before Statsz
			getJSON(t, ts, "/statsz", &before)

			a, b, c := testTriple(t, int64(400+i), 20)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+p.path,
				strings.NewReader(p.body(a, b, c, "")))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			waitFor(t, "the request to take an admission slot", func() bool {
				admitted, _ := s.gate.loads()
				return admitted == 1
			})
			cancel()
			<-done
			waitFor(t, "the cancelled request to leave admission", func() bool {
				admitted, _ := s.gate.loads()
				return admitted == 0
			})
			var after Statsz
			getJSON(t, ts, "/statsz", &after)
			if got := after.Failed - before.Failed; got != 1 {
				t.Errorf("failed +%d, want +1 for the request cancelled in the run queue", got)
			}
			if after.EstBytesInFlight != 0 {
				t.Errorf("est_bytes_in_flight = %d after the cancelled request left", after.EstBytesInFlight)
			}
		})
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkAlignCacheHit serves one cached /v1/align request through the
// handler per op: decode, resolve, key, cache lookup and encode, with no
// admission. Run it with -benchmem; its allocs/op guard the hit path.
func BenchmarkAlignCacheHit(b *testing.B) {
	s := New(Config{CacheBytes: 1 << 20, CoalesceTick: -1})
	defer s.Close()
	h := s.Handler()
	body := alignBody("ACGTACGTACGTACGTACGTACGTACGT", "ACGTTCGTACGTAGGTACGTACCTACGT", "ACGAACGTACGTACGAACGTACGTACGG", "")
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/align", strings.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("priming request: status %d: %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Header().Get("X-Cache") != cacheStateHit {
			b.Fatalf("X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
		}
	}
}
