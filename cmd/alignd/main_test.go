package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faultpoint"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

func TestRunReportsListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run([]string{"-addr", ln.Addr().String()}, io.Discard); err == nil {
		t.Fatal("run bound an already-bound address")
	}
}

// TestServeDrainExitsCleanly boots the real daemon with the result cache
// on and a 64 KiB lattice cap. A 320-residue triple is shed with 413,
// which proves -max-lattice-bytes reaches the server. The small triple is
// aligned twice — a cache miss, then a hit, which proves the same of
// -cache-bytes. Then it delivers SIGTERM and asserts the drain contract:
// /readyz flips to 503 while the process is still serving, and run
// returns nil (exit 0).
func TestServeDrainExitsCleanly(t *testing.T) {
	// -cache-neardup-identity no longer does anything, but existing
	// command lines that pass it must still start.
	base, done := startDaemon(t, "-drain-grace", "300ms", "-workers", "2", "-cache-bytes", "1048576",
		"-max-lattice-bytes", "65536", "-cache-neardup-identity", "0.9")

	rng := rand.New(rand.NewSource(13))
	big := func() string {
		b := make([]byte, 320)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	resp, err := http.Post(base+"/v1/align", "application/json",
		strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, big(), big(), big())))
	if err != nil {
		t.Fatalf("oversize align: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize align status = %d, want 413", resp.StatusCode)
	}

	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/align", "application/json",
			strings.NewReader(`{"a":"ACGTACGTAC","b":"ACGTTCGTAC","c":"ACGAACGTAC"}`))
		if err != nil {
			t.Fatalf("align: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align status = %d, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("X-Cache = %q, want %q", got, want)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// During the grace window the listener is still up and readyz reports
	// draining.
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// TestServeShedsAndDrainsInFlight boots the real daemon with a one-slot
// admission queue. While a slow alignment holds the slot, /readyz answers
// 200 and a second request is shed with 429 and a Retry-After hint, which
// proves -queue reaches the server. SIGTERM then drains the slow request:
// /readyz turns 503, the request still completes with 200 and a score, and
// run returns nil (exit 0).
func TestServeShedsAndDrainsInFlight(t *testing.T) {
	base, done := startDaemon(t, "-drain-grace", "300ms", "-workers", "2", "-queue", "1",
		"-max-in-flight", "1", "-coalesce-tick", "0")

	// The linear-space kernel is slow by design (Hirschberg re-fills the
	// lattice), and random residues keep the alignment from being cheap.
	rng := rand.New(rand.NewSource(11))
	mk := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	slow := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"algorithm":"linear"}`, mk(700), mk(700), mk(700))
	type reply struct {
		status int
		body   string
		err    error
	}
	slowDone := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/v1/align", "application/json", strings.NewReader(slow))
		if err != nil {
			slowDone <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		slowDone <- reply{resp.StatusCode, string(body), err}
	}()
	// /statsz is indented JSON, so decode it rather than match its text.
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/statsz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var st struct {
			InFlight int64 `json:"in_flight"`
		}
		return json.NewDecoder(resp.Body).Decode(&st) == nil && st.InFlight >= 1
	})

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/align", "application/json",
		strings.NewReader(`{"a":"ACGTACGTAC","b":"ACGTTCGTAC","c":"ACGAACGTAC"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("request over a full queue: status %d, Retry-After %q; want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	select {
	case r := <-slowDone:
		if r.err != nil || r.status != http.StatusOK || !strings.Contains(r.body, `"score"`) {
			t.Fatalf("drained request: status %d, err %v, body %.200s; want 200 with a score", r.status, r.err, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request did not finish during the drain")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// TestServeCacheChaosContained boots the real daemon with the result cache
// on and both cache fault points armed: the first flight leader panics and
// the first Put stores a corrupted entry. The panic must answer a 500 that
// names the flight leader while /healthz still answers. The next request
// computes and stores the corrupted entry, so the one after it must drop
// that entry and answer miss with the same score, and the request after
// that is a hit. /statsz then counts the contained panic, the dropped
// entry and the hit.
func TestServeCacheChaosContained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.ArmSpec("resultcache.flight.panic=nth:1;resultcache.put.corrupt=nth:1"); err != nil {
		t.Fatal(err)
	}
	base, done := startDaemon(t, "-drain-grace", "0", "-workers", "2", "-coalesce-tick", "0", "-cache-bytes", "4194304")

	type reply struct {
		status int
		cache  string
		body   string
		score  int32
	}
	align := func() reply {
		t.Helper()
		resp, err := http.Post(base+"/v1/align", "application/json",
			strings.NewReader(`{"a":"ACGTACGTACGTACGT","b":"ACGTTCGTACGTAGGT","c":"ACGAACGTACGTACGA"}`))
		if err != nil {
			t.Fatalf("align: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("align body: %v", err)
		}
		r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: string(body)}
		if r.status == http.StatusOK {
			var out struct{ Score int32 }
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("align body %q: %v", body, err)
			}
			r.score = out.Score
		}
		return r
	}

	if r := align(); r.status != http.StatusInternalServerError || !strings.Contains(r.body, "flight leader") {
		t.Fatalf("armed leader panic: status %d, body %q; want a 500 naming the flight leader", r.status, r.body)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz after the panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panic = %d, want 200", resp.StatusCode)
	}
	stored := align()
	dropped := align()
	if stored.status != http.StatusOK || dropped.status != http.StatusOK {
		t.Fatalf("statuses %d/%d after the panic, want 200/200", stored.status, dropped.status)
	}
	if dropped.cache != "miss" || dropped.score != stored.score {
		t.Fatalf("request after the corrupted Put: X-Cache %q, score %d; want miss with score %d",
			dropped.cache, dropped.score, stored.score)
	}
	if r := align(); r.status != http.StatusOK || r.cache != "hit" || r.score != stored.score {
		t.Fatalf("clean re-Put: status %d, X-Cache %q, score %d; want a 200 hit with score %d",
			r.status, r.cache, r.score, stored.score)
	}

	resp, err = http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		PanicsContained     int64 `json:"panics_contained"`
		CacheCorruptDropped int64 `json:"cache_corrupt_dropped"`
		CacheHits           int64 `json:"cache_hits"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.PanicsContained < 1 || st.CacheCorruptDropped < 1 || st.CacheHits < 1 {
		t.Fatalf("statsz %+v: want panics_contained, cache_corrupt_dropped and cache_hits each >= 1", st)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// TestServeChaosMaskedAndDrained boots the real daemon with two fault
// points armed: the first two admissions answer an injected 503, and
// every second admission past them is forced through the memory-pressure
// downgrade ladder. A bare POST sees the 503; the retrying client masks
// the next one. Two requests for one 300-residue triple both answer the
// same exact score, undegraded, and at least one of them on a downgraded
// plan. /statsz counts the injected faults, the retry, the pressure
// degrade and the completions, and SIGTERM still drains to exit 0 with
// the faults armed.
func TestServeChaosMaskedAndDrained(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.ArmSpec("server.admit=first:2;server.pressure.degrade=every:2"); err != nil {
		t.Fatal(err)
	}
	base, done := startDaemon(t, "-drain-grace", "300ms", "-workers", "2", "-coalesce-tick", "0")
	ctx := context.Background()

	resp, err := http.Post(base+"/v1/align", "application/json",
		strings.NewReader(`{"a":"ACGTACGT","b":"ACGTTCGT","c":"ACGAACGT"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bare request under an armed admit fault: status %d, want 503", resp.StatusCode)
	}
	c := client.New(client.Config{BaseURL: base, MaxRetries: 4, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 1})
	if _, err := c.Align(ctx, &client.AlignRequest{A: "ACGTACGTACGTACGT", B: "ACGTTCGTACGTAGGT", C: "ACGAACGTACGTACGA"}); err != nil {
		t.Fatalf("retries did not mask the injected 503: %v", err)
	}

	rng := rand.New(rand.NewSource(17))
	mk := func() string {
		b := make([]byte, 300)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	req := &client.AlignRequest{A: mk(), B: mk(), C: mk()}
	var downgraded bool
	var scores []int32
	for range 2 {
		res, err := c.Align(ctx, req)
		if err != nil {
			t.Fatalf("300-residue align: %v", err)
		}
		if res.Degraded {
			t.Fatalf("pressure degrade served a heuristic result: %+v", res.Plan)
		}
		downgraded = downgraded || len(res.Plan.Downgrades) > 0
		scores = append(scores, res.Score)
	}
	if !downgraded || scores[0] != scores[1] {
		t.Fatalf("forced pressure degrade: scores %v, downgraded plan %v; want one exact score and a downgraded plan", scores, downgraded)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected < 2 || st.RetriesObserved < 1 || st.MemPressureDegraded < 1 || st.Completed < 3 {
		t.Fatalf("statsz faults_injected %d, retries_observed %d, mem_pressure_degraded %d, completed %d; want >= 2, 1, 1, 3",
			st.FaultsInjected, st.RetriesObserved, st.MemPressureDegraded, st.Completed)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM with faults armed, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if err := client.New(client.Config{BaseURL: base, MaxRetries: -1}).Ready(ctx); err == nil {
		t.Fatal("readyz answered after the drain")
	}
}

// startDaemon runs the daemon with args on a free loopback port and waits
// until /healthz answers. It returns the base URL and the channel run's
// result arrives on.
func startDaemon(t *testing.T, args ...string) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", addr}, args...), io.Discard)
	}()
	base := "http://" + addr
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return base, done
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
