package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	repro "repro"
)

// newTestServer builds a Server plus an httptest front for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts body to path and returns the response with its decoded
// JSON body (into out when non-nil).
func postJSON(t *testing.T, ts *httptest.Server, path, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		var buf bytes.Buffer
		if err := json.NewDecoder(io2(&buf, resp)).Decode(out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", path, buf.String(), err)
		}
	}
	return resp
}

// io2 tees the body so decode failures can show it.
func io2(buf *bytes.Buffer, resp *http.Response) *strings.Reader {
	buf.ReadFrom(resp.Body)
	return strings.NewReader(buf.String())
}

// testTriple returns three related DNA residue strings of roughly length n.
func testTriple(t *testing.T, seed int64, n int) (a, b, c string) {
	t.Helper()
	g := repro.NewGenerator(repro.DNA, seed)
	tr := g.RelatedTriple(n, repro.MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.02, DeletionRate: 0.02})
	return tr.A.String(), tr.B.String(), tr.C.String()
}

// directScore aligns the same residues through the library for comparison.
func directScore(t *testing.T, a, b, c string) int32 {
	t.Helper()
	tr, err := repro.NewTriple(a, b, c, repro.DNA)
	if err != nil {
		t.Fatalf("NewTriple: %v", err)
	}
	res, err := repro.Align(tr, repro.Options{Workers: 1})
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	return res.Score
}

func TestServeAlignInline(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1}) // direct path
	a, b, c := testTriple(t, 1, 40)
	var out AlignResponse
	resp := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if want := directScore(t, a, b, c); out.Score != want {
		t.Errorf("score = %d, want %d", out.Score, want)
	}
	if out.Coalesced {
		t.Errorf("Coalesced = true on the direct path")
	}
	if out.Columns <= 0 || len(out.Rows[0]) != out.Columns {
		t.Errorf("columns = %d, rows[0] len %d", out.Columns, len(out.Rows[0]))
	}
}

// TestServeAlignEveryAlgorithmName: every public algorithm name, aliases
// included, is accepted over the wire and answered by the kernel the
// planner resolves it to.
func TestServeAlignEveryAlgorithmName(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	a, b, c := testTriple(t, 3, 20)
	tr, err := repro.NewTriple(a, b, c, repro.DNA)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range repro.Algorithms() {
		pl, err := repro.PlanAlign(tr, repro.Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var out AlignResponse
		resp := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"algorithm":%q}`, a, b, c, algo), &out)
		if resp.StatusCode != http.StatusOK || out.Algorithm != pl.Algorithm {
			t.Errorf("%s: status %d, ran %q, want 200 from %q", algo, resp.StatusCode, out.Algorithm, pl.Algorithm)
		}
	}
}

func TestServeAlignFASTA(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	a, b, c := testTriple(t, 2, 30)
	fasta := fmt.Sprintf(">sA\n%s\n>sB\n%s\n>sC\n%s\n", a, b, c)
	body, err := json.Marshal(AlignRequest{FASTA: fasta})
	if err != nil {
		t.Fatal(err)
	}
	var out AlignResponse
	resp := postJSON(t, ts, "/v1/align", string(body), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Names != [3]string{"sA", "sB", "sC"} {
		t.Errorf("names = %v", out.Names)
	}
	if want := directScore(t, a, b, c); out.Score != want {
		t.Errorf("score = %d, want %d", out.Score, want)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSequenceLen: 16, CoalesceTick: -1})
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{"a":`, http.StatusBadRequest},
		{"unknown field", `{"sequence_a":"ACGT"}`, http.StatusBadRequest},
		{"no sequences", `{}`, http.StatusBadRequest},
		{"both forms", `{"a":"ACGT","b":"ACGT","c":"ACGT","fasta":">x\nACGT"}`, http.StatusBadRequest},
		{"bad residues", `{"a":"ACGT","b":"ACGT","c":"ACGTZ!"}`, http.StatusBadRequest},
		{"malformed FASTA", `{"fasta":"not a fasta document"}`, http.StatusBadRequest},
		{"two-record FASTA", `{"fasta":">x\nACGT\n>y\nACGT"}`, http.StatusBadRequest},
		{"unknown alphabet", `{"a":"ACGT","b":"ACGT","c":"ACGT","alphabet":"klingon"}`, http.StatusBadRequest},
		{"unknown algorithm", `{"a":"ACGT","b":"ACGT","c":"ACGT","algorithm":"quantum"}`, http.StatusBadRequest},
		{"unknown scheme", `{"a":"ACGT","b":"ACGT","c":"ACGT","scheme":"blosum1"}`, http.StatusBadRequest},
		{"scheme of another alphabet", wrongAlphabetBody, http.StatusBadRequest},
		{"over length cap", fmt.Sprintf(`{"a":%q,"b":"ACGT","c":"ACGT"}`, strings.Repeat("A", 17)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out errorResponse
			resp := postJSON(t, ts, "/v1/align", tc.body, &out)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (error %q)", resp.StatusCode, tc.status, out.Error)
			}
			if out.Error == "" {
				t.Errorf("empty error body")
			}
		})
	}
}

func TestShedOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2, MaxInFlight: 1, CoalesceTick: -1})
	// Fill the admission queue from below; the next request must shed.
	for i := 0; i < 2; i++ {
		if !s.gate.tryAdmit() {
			t.Fatalf("admission slot %d unavailable", i)
		}
	}
	a, b, c := testTriple(t, 3, 20)
	var out errorResponse
	resp := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), &out)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("missing Retry-After header")
	}
	var st Statsz
	r2 := getJSON(t, ts, "/statsz", &st)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("statsz status = %d", r2.StatusCode)
	}
	if st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
	if st.QueueDepth != 2 {
		t.Errorf("queue_depth = %d, want 2 (the held slots)", st.QueueDepth)
	}
	s.gate.releaseAdmit()
	s.gate.releaseAdmit()
	resp2 := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), nil)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("after release: status = %d, want 200", resp2.StatusCode)
	}
}

// getJSON fetches path and decodes the JSON body.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

func TestServeDeadlineDegraded(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	a, b, c := testTriple(t, 4, 220)
	// 1ms cannot finish a 220³ exact lattice; fallback (the default)
	// degrades to the heuristic and reports the cause.
	var out AlignResponse
	resp := postJSON(t, ts, "/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"algorithm":"full","deadline_ms":1}`, a, b, c), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degraded)", resp.StatusCode)
	}
	if !out.Degraded {
		t.Fatalf("Degraded = false; algorithm %q finished a 220-cube in 1ms?", out.Algorithm)
	}
	if out.DegradedCause == "" {
		t.Errorf("empty degraded_cause")
	}
	if out.Algorithm != string(repro.AlgorithmCenterStarRefined) {
		t.Errorf("algorithm = %q, want %q", out.Algorithm, repro.AlgorithmCenterStarRefined)
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.Degraded < 1 {
		t.Errorf("statsz degraded = %d, want >= 1", st.Degraded)
	}

	// With fallback off the same request is a 504.
	var errOut errorResponse
	resp2 := postJSON(t, ts, "/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"algorithm":"full","deadline_ms":1,"fallback":false}`, a, b, c), &errOut)
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("no-fallback status = %d, want 504 (error %q)", resp2.StatusCode, errOut.Error)
	}
}

func TestCoalesceCorrectness(t *testing.T) {
	const reqs = 6
	_, ts := newTestServer(t, Config{CoalesceTick: 10 * time.Millisecond, CoalesceMax: 4, Workers: 4})
	type seqs struct{ a, b, c string }
	in := make([]seqs, reqs)
	for i := range in {
		a, b, c := testTriple(t, 100+int64(i), 30+2*i)
		in[i] = seqs{a, b, c}
	}
	outs := make([]AlignResponse, reqs)
	codes := make([]int, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/align", "application/json",
				strings.NewReader(fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, in[i].a, in[i].b, in[i].c)))
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&outs[i]) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	coalesced := 0
	for i := 0; i < reqs; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("req %d: status %d", i, codes[i])
		}
		if want := directScore(t, in[i].a, in[i].b, in[i].c); outs[i].Score != want {
			t.Errorf("req %d: score %d, want %d", i, outs[i].Score, want)
		}
		if outs[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != reqs {
		t.Errorf("coalesced %d of %d requests, want all (all are small)", coalesced, reqs)
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.CoalescedRequests != reqs {
		t.Errorf("statsz coalesced_requests = %d, want %d", st.CoalescedRequests, reqs)
	}
	if st.CoalescedBatches < 1 {
		t.Errorf("statsz coalesced_batches = %d, want >= 1", st.CoalescedBatches)
	}
	if st.Completed != reqs {
		t.Errorf("statsz completed = %d, want %d", st.Completed, reqs)
	}
}

func TestServeBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	a0, b0, c0 := testTriple(t, 5, 30)
	a1, b1, c1 := testTriple(t, 6, 35)
	body := fmt.Sprintf(`{
		"defaults": {"alphabet": "dna"},
		"items": [
			{"a":%q,"b":%q,"c":%q},
			{"a":%q,"b":%q,"c":%q}
		]
	}`, a0, b0, c0, a1, b1, c1)
	var out BatchResponse
	resp := postJSON(t, ts, "/v1/align/batch", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(out.Results))
	}
	for i, want := range []int32{directScore(t, a0, b0, c0), directScore(t, a1, b1, c1)} {
		r := out.Results[i]
		if r.Error != "" || r.Result == nil {
			t.Fatalf("item %d: error %q", i, r.Error)
		}
		if r.Result.Score != want {
			t.Errorf("item %d: score %d, want %d", i, r.Result.Score, want)
		}
	}

	// A malformed item rejects the whole batch with its index named.
	var errOut errorResponse
	resp2 := postJSON(t, ts, "/v1/align/batch",
		fmt.Sprintf(`{"items":[{"a":%q,"b":%q,"c":%q},{"a":"!!","b":"A","c":"A"}]}`, a0, b0, c0), &errOut)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad item status = %d, want 400", resp2.StatusCode)
	}
	if !strings.Contains(errOut.Error, "item 1") {
		t.Errorf("error %q does not name the offending item", errOut.Error)
	}

	// Empty batches are a client error, not an empty 200.
	resp3 := postJSON(t, ts, "/v1/align/batch", `{"items":[]}`, nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp3.StatusCode)
	}

	// So is an item whose scheme scores another alphabet: the whole batch
	// is rejected before any of it runs.
	errOut = errorResponse{}
	resp4 := postJSON(t, ts, "/v1/align/batch",
		fmt.Sprintf(`{"items":[{"a":%q,"b":%q,"c":%q},%s]}`, a0, b0, c0, wrongAlphabetBody), &errOut)
	if resp4.StatusCode != http.StatusBadRequest || !strings.Contains(errOut.Error, "item 1") {
		t.Errorf("wrong-alphabet item: status %d error %q, want 400 naming item 1", resp4.StatusCode, errOut.Error)
	}
}

func TestServeHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CoalesceTick: -1})
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d", resp.StatusCode)
	}
	a, b, c := testTriple(t, 7, 25)
	postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), nil)
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
	// An auto linear-gap align plans the lane-packed lattice kernel.
	if st.PlannedPacked != 1 {
		t.Errorf("planned_packed = %d, want 1 after an auto linear-gap align", st.PlannedPacked)
	}
	if st.Pool.Capacity < 2 {
		t.Errorf("pool capacity = %d, want >= 2 (prewarmed)", st.Pool.Capacity)
	}
	if st.LatencyMS.P50 <= 0 {
		t.Errorf("latency p50 = %v, want > 0 after a request", st.LatencyMS.P50)
	}
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Errorf("idle gauges: queue_depth %d in_flight %d", st.QueueDepth, st.InFlight)
	}
}

func TestServeMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	resp, err := http.Get(ts.URL + "/v1/align")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/align = %d, want 405", resp.StatusCode)
	}
}
