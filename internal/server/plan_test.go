package server

// Tests for the planner-facing surface of the server: the /v1/plan
// dry-run endpoint, the -max-lattice-bytes admission gate (413 before a
// queue slot), and the est_bytes_in_flight / planned_downgrades statsz
// fields.

import (
	"fmt"
	"net/http"
	"testing"

	repro "repro"
)

// TestPlanEndpoint: POST /v1/plan returns the execution plan without
// aligning anything.
func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a, b, c := testTriple(t, 7, 40)
	var pl repro.Plan
	resp := postJSON(t, ts, "/v1/plan",
		fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), &pl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if pl.Algorithm == "" || pl.EstCells == 0 || pl.EstBytes == 0 {
		t.Errorf("incomplete plan: %+v", pl)
	}
	if pl.Workers < 1 {
		t.Errorf("planned workers = %d", pl.Workers)
	}
}

// TestPlanEndpointDowngrade: a max_memory_bytes too small for the full
// lattice shows the downgrade in the dry-run plan.
func TestPlanEndpointDowngrade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a, b, c := testTriple(t, 7, 96)
	var pl repro.Plan
	resp := postJSON(t, ts, "/v1/plan",
		fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"max_memory_bytes":262144}`, a, b, c), &pl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if pl.Algorithm != string(repro.AlgorithmParallelLinear) {
		t.Errorf("planned %s, want %s under a 256 KiB budget", pl.Algorithm, repro.AlgorithmParallelLinear)
	}
	if len(pl.Downgrades) == 0 {
		t.Error("downgrade missing from the dry-run plan")
	}
	if pl.Degraded {
		t.Error("linear-space plan flagged Degraded")
	}
}

// TestPlanEndpointBadRequest: malformed input is a 400, not a 500.
func TestPlanEndpointBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"a":"ACGT","b":"ACGT","c":"not dna!"}`,
		wrongAlphabetBody,
	} {
		var er errorResponse
		resp := postJSON(t, ts, "/v1/plan", body, &er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestMaxLatticeBytesAdmission: a request whose planned footprint exceeds
// the server cap is shed with 413 before taking a queue slot — failed
// increments, shed (the queue-full counter) does not — and a small
// request still succeeds.
func TestMaxLatticeBytesAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLatticeBytes: 64 << 10})
	big := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, seqN(96), seqN(96), seqN(96))
	var er errorResponse
	resp := postJSON(t, ts, "/v1/align", big, &er)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize align status = %d, want 413 (%s)", resp.StatusCode, er.Error)
	}
	// /v1/plan applies the same cap so clients can probe it.
	resp = postJSON(t, ts, "/v1/plan", big, &er)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize plan status = %d, want 413", resp.StatusCode)
	}

	// A related 300-nt triple plans band first. Its band would fit the
	// cap, but the plan's bytes cover the dense fallback the run may take,
	// and those are what admission weighs.
	ra, rb, rc := testTriple(t, 12, 300)
	related := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, ra, rb, rc)
	tr, err := repro.NewTriple(ra, rb, rc, repro.DNA)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := repro.PlanAlign(tr, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "bounded" || pl.Fallback != "parallel" || pl.EstBytes <= 64<<10 {
		t.Fatalf("related 300-nt plan %+v, want band first over a parallel fallback", pl)
	}
	for _, path := range []string{"/v1/plan", "/v1/align"} {
		resp = postJSON(t, ts, path, related, &er)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("band-first %s status = %d, want 413 (%s)", path, resp.StatusCode, er.Error)
		}
	}

	small := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, seqN(10), seqN(10), seqN(10))
	var ar AlignResponse
	resp = postJSON(t, ts, "/v1/align", small, &ar)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small align status = %d", resp.StatusCode)
	}
	if ar.Plan == nil || ar.Plan.EstBytes > 64<<10 {
		t.Errorf("small align plan = %+v", ar.Plan)
	}

	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.Failed < 1 {
		t.Errorf("statsz failed = %d, want >= 1 (oversize align)", st.Failed)
	}
	if st.Shed != 0 {
		t.Errorf("statsz shed = %d; 413s must not consume queue slots", st.Shed)
	}
	if st.EstBytesInFlight != 0 {
		t.Errorf("est_bytes_in_flight = %d after all requests drained", st.EstBytesInFlight)
	}
}

// TestStatszPlannedDowngrades: a budgeted align that walks the ladder
// increments planned_downgrades and carries the plan in the response.
func TestStatszPlannedDowngrades(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a, b, c := testTriple(t, 9, 96)
	var ar AlignResponse
	resp := postJSON(t, ts, "/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"max_memory_bytes":262144}`, a, b, c), &ar)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ar.Plan == nil || len(ar.Plan.Downgrades) == 0 {
		t.Fatalf("response plan missing downgrades: %+v", ar.Plan)
	}
	if ar.Algorithm != string(repro.AlgorithmParallelLinear) {
		t.Errorf("ran %s, want %s", ar.Algorithm, repro.AlgorithmParallelLinear)
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if st.PlannedDowngrades < 1 {
		t.Errorf("statsz planned_downgrades = %d, want >= 1", st.PlannedDowngrades)
	}
}

// TestBatchRejectsOversizeItem: one over-cap item fails the whole batch
// with 413 before any of it is queued.
func TestBatchRejectsOversizeItem(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLatticeBytes: 64 << 10})
	body := fmt.Sprintf(`{"items":[{"a":%q,"b":%q,"c":%q},{"a":%q,"b":%q,"c":%q}]}`,
		seqN(10), seqN(10), seqN(10), seqN(96), seqN(96), seqN(96))
	var er errorResponse
	resp := postJSON(t, ts, "/v1/align/batch", body, &er)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, er.Error)
	}
}

// seqN builds a deterministic DNA string of length n.
func seqN(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[i%4]
	}
	return string(b)
}
