// Serving: the alignd HTTP wire format, driven end to end. The example
// embeds the serving layer in-process on an ephemeral port — a real
// deployment runs the same layer as `go run ./cmd/alignd -addr :8080` —
// and speaks to it as a client: a single alignment, a batch with shared
// defaults, a deadline that degrades to a heuristic instead of failing,
// and the /statsz gauges an operator would scrape.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

func main() {
	// Boot the serving layer. QueueDepth bounds admitted-but-unfinished
	// work (beyond it, clients get 429 + Retry-After); CoalesceTick merges
	// concurrent small requests into one batch submission.
	srv := server.New(server.Config{
		Workers:      4,
		QueueDepth:   16,
		CoalesceTick: 2 * time.Millisecond,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// One triple, inline sequences. Algorithm, scheme, workers, and
	// deadline are all optional knobs; the default is the parallel exact
	// aligner under the process-wide pool.
	var res struct {
		Algorithm string   `json:"algorithm"`
		Score     int32    `json:"score"`
		Columns   int      `json:"columns"`
		Rows      []string `json:"rows"`
	}
	post(base+"/v1/align", map[string]any{
		"a": "GATTACAGATTACA", "b": "GATCACAGATACA", "c": "GATTACAGTTACA",
	}, &res)
	fmt.Printf("single: algorithm=%s score=%d columns=%d\n", res.Algorithm, res.Score, res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row)
	}

	// A batch: shared defaults, per-item overrides. Items come back in
	// input order, each with its own result or error.
	var batch struct {
		Results []struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		} `json:"results"`
	}
	post(base+"/v1/align/batch", map[string]any{
		"defaults": map[string]any{"alphabet": "dna", "algorithm": "bounded"},
		"items": []map[string]any{
			{"a": "ACGTACGTACGT", "b": "ACGTTCGTACGT", "c": "ACGAACGTACGT"},
			{"a": "AAAACCCCGGGG", "b": "AAATCCCCGGGG", "c": "AATACCCCGGGG", "algorithm": "full"},
		},
	}, &batch)
	fmt.Printf("\nbatch: %d results\n", len(batch.Results))
	for _, r := range batch.Results {
		var item struct {
			Algorithm string `json:"algorithm"`
			Score     int32  `json:"score"`
		}
		if err := json.Unmarshal(r.Result, &item); err != nil {
			log.Fatalf("item %d: %s (%v)", r.Index, r.Error, err)
		}
		fmt.Printf("  item %d: algorithm=%s score=%d\n", r.Index, item.Algorithm, item.Score)
	}

	// An impossible deadline. The server-side default is fallback=true, so
	// instead of a 504 the reply is 200 with a degraded heuristic
	// alignment and the cause; pass "fallback": false to get the error.
	var deg struct {
		Algorithm     string `json:"algorithm"`
		Score         int32  `json:"score"`
		Degraded      bool   `json:"degraded"`
		DegradedCause string `json:"degraded_cause"`
	}
	long := bytes.Repeat([]byte("ACGTTGCA"), 40)
	post(base+"/v1/align", map[string]any{
		"a": string(long), "b": string(long[1:]), "c": string(long[2:]),
		"algorithm": "full", "deadline_ms": 1,
	}, &deg)
	fmt.Printf("\ndeadline: degraded=%v algorithm=%s score=%d\n  cause: %s\n",
		deg.Degraded, deg.Algorithm, deg.Score, deg.DegradedCause)

	// Operational visibility: queue and pool gauges, counters, latency
	// quantiles over the last 1024 requests.
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Completed         int64 `json:"completed"`
		Shed              int64 `json:"shed"`
		Degraded          int64 `json:"degraded"`
		CoalescedBatches  int64 `json:"coalesced_batches"`
		CoalescedRequests int64 `json:"coalesced_requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstatsz: completed=%d shed=%d degraded=%d coalesced=%d/%d\n",
		stats.Completed, stats.Shed, stats.Degraded,
		stats.CoalescedRequests, stats.CoalescedBatches)
}

// post sends one JSON request and decodes the JSON reply into out,
// failing loudly on a non-200 status.
func post(url string, req any, out any) {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
