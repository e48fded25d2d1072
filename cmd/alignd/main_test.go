package main

import (
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-drain-grace", "300ms", "-workers", "2", "-cache-bytes", "1048576",
			"-max-lattice-bytes", "65536"}, io.Discard)
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-drain-grace", "300ms", "-workers", "2", "-queue", "1",
			"-max-in-flight", "1", "-coalesce-tick", "0"}, io.Discard)
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
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/statsz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return !strings.Contains(string(body), `"in_flight":0`)
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
