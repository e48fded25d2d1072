package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	repro "repro"
)

// msaFamilyJSON returns a JSON array of n related DNA residue strings.
func msaFamilyJSON(t *testing.T, seed int64, n, length int) ([]*repro.Sequence, string) {
	t.Helper()
	g := repro.NewGenerator(repro.DNA, seed)
	fam := g.RelatedFamily(n, length, repro.MutationModel{
		SubstitutionRate: 0.15, InsertionRate: 0.04, DeletionRate: 0.04,
	})
	strs := make([]string, len(fam))
	for i, s := range fam {
		strs[i] = s.String()
	}
	b, err := json.Marshal(strs)
	if err != nil {
		t.Fatal(err)
	}
	return fam, string(b)
}

func TestServeMsaInline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	fam, seqsJSON := msaFamilyJSON(t, 11, 6, 35)
	var out MsaResponse
	resp := postJSON(t, ts, "/v1/msa", fmt.Sprintf(`{"sequences":%s}`, seqsJSON), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.NumSequences != 6 || len(out.Rows) != 6 {
		t.Fatalf("got %d sequences, %d rows", out.NumSequences, len(out.Rows))
	}
	for i, row := range out.Rows {
		if len(row) != out.Columns {
			t.Errorf("row %d has %d chars, columns = %d", i, len(row), out.Columns)
		}
		if strings.Replace(row, "-", "", -1) != fam[i].String() {
			t.Errorf("row %d does not degap to input %d", i, i)
		}
	}
	if out.OptimalityGap < 0 {
		t.Errorf("score %d beats upper bound %d", out.Score, out.UpperBound)
	}
	if out.BatchedMerges < 2 {
		t.Errorf("BatchedMerges = %d, want >= 2 for a 6-sequence family", out.BatchedMerges)
	}
	st := s.snapshot()
	if st.MsaRequests != 1 || st.MsaCompleted != 1 {
		t.Errorf("msa_requests=%d msa_completed=%d, want 1/1", st.MsaRequests, st.MsaCompleted)
	}
	if st.MsaSequences != 6 {
		t.Errorf("msa_sequences = %d, want 6", st.MsaSequences)
	}
	if st.MsaMerges == 0 || st.MsaBatchedMerges != int64(out.BatchedMerges) {
		t.Errorf("msa_merges=%d msa_batched_merges=%d (response %d)",
			st.MsaMerges, st.MsaBatchedMerges, out.BatchedMerges)
	}
}

// msaSmokeFamily is a six-sequence DNA family drawn from a random 60-mer
// ancestor: per site, 6% redrawn uniformly from ACGT and 2% deleted.
var msaSmokeFamily = []string{
	"AGTATGTTTCAATAGTGACAAAGACAGGCAACGCGAGGCTCCGATTAAGCATCGGAA",
	"AAGTATGTTTCAATAGGTGACAACAGAAGGCATCGCGAGGCTCCGATTAAGCATCGGA",
	"AAGTATGTTTCAATAGGGACTAAAGCAGGCAACGCGAGGTCCGATGAAGCATGGAA",
	"AAGTATGTTTCAATAGGTGACTAAAGACAGGCACCGCGAGGCTCCGATTAAGCATCGAA",
	"AAGTATGTTTCAAGGTGACTAAAGACAGGCAACGCGGGGCTCCGATTAAGCATCCGAA",
	"AAGTATGTTTCAATAGGTGACTAAAGACAGGCAACGCGAGGCTGCGATTAAGCATCGGAA",
}

// TestServeMsaFASTA drives /v1/msa end to end with a FASTA family and
// explain: every row degaps to its input, the level of two 3-way merges
// fans through the batch path, the guide tree is explained, and the msa_*
// counters reach /statsz.
func TestServeMsaFASTA(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var fasta strings.Builder
	for i, s := range msaSmokeFamily {
		fmt.Fprintf(&fasta, ">m%d\n%s\n", i, s)
	}
	body, _ := json.Marshal(map[string]any{"fasta": fasta.String(), "explain": true})
	var out MsaResponse
	resp := postJSON(t, ts, "/v1/msa", string(body), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.NumSequences != 6 || len(out.Rows) != 6 || len(out.Names) != 6 || out.Names[0] != "m0" {
		t.Fatalf("num_sequences=%d rows=%d names=%v", out.NumSequences, len(out.Rows), out.Names)
	}
	for i, row := range out.Rows {
		if len(row) != out.Columns {
			t.Errorf("row %d has %d chars, columns = %d", i, len(row), out.Columns)
		}
		if strings.ReplaceAll(row, "-", "") != msaSmokeFamily[i] {
			t.Errorf("row %d does not degap to input %d", i, i)
		}
	}
	if out.OptimalityGap < 0 {
		t.Errorf("optimality_gap = %d, want >= 0", out.OptimalityGap)
	}
	if out.BatchedMerges < 2 {
		t.Errorf("batched_merges = %d, want >= 2", out.BatchedMerges)
	}
	if !strings.Contains(out.GuideTree, "guide tree over 6 leaves") || len(out.Merges) == 0 {
		t.Errorf("explain response missing guide tree (%q) or merges (%d)", out.GuideTree, len(out.Merges))
	}
	var st map[string]any
	getJSON(t, ts, "/statsz", &st)
	for key, min := range map[string]float64{
		"msa_requests": 1, "msa_completed": 1, "msa_sequences": 6, "msa_merges": 3, "msa_batched_merges": 2,
	} {
		if v, ok := st[key].(float64); !ok || v < min {
			t.Errorf("statsz %s = %v, want >= %v", key, st[key], min)
		}
	}
}

// TestServeMsaTripleMatchesAlign pins the N=3 contract over the wire: a
// three-sequence /v1/msa answer is bit-identical to /v1/align on the same
// residues.
func TestServeMsaTripleMatchesAlign(t *testing.T) {
	_, ts := newTestServer(t, Config{CoalesceTick: -1})
	a, b, c := testTriple(t, 31, 40)
	var al AlignResponse
	if resp := postJSON(t, ts, "/v1/align", fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c), &al); resp.StatusCode != 200 {
		t.Fatalf("align status %d", resp.StatusCode)
	}
	var ms MsaResponse
	if resp := postJSON(t, ts, "/v1/msa", fmt.Sprintf(`{"sequences":[%q,%q,%q]}`, a, b, c), &ms); resp.StatusCode != 200 {
		t.Fatalf("msa status %d", resp.StatusCode)
	}
	if ms.Score != al.Score {
		t.Fatalf("msa score %d, align score %d", ms.Score, al.Score)
	}
	for i := range al.Rows {
		if ms.Rows[i] != al.Rows[i] {
			t.Fatalf("row %d differs:\nmsa   %s\nalign %s", i, ms.Rows[i], al.Rows[i])
		}
	}
}

func TestServeMsaRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMsaSequences: 4, MaxSequenceLen: 50})
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"single", `{"sequences":["ACGT"]}`},
		{"both forms", `{"sequences":["ACGT","ACGA"],"fasta":">a\nACGT\n"}`},
		{"bad residue", `{"sequences":["ACGT","ACGZ"]}`},
		{"bad alphabet", `{"sequences":["ACGT","ACGA"],"alphabet":"klingon"}`},
		{"empty sequence", `{"sequences":["ACGT",""]}`},
		{"scheme of another alphabet", `{"sequences":["ACGT","ACGA"],"scheme":"blosum62"}`},
		{"name mismatch", `{"sequences":["ACGT","ACGA"],"names":["x"]}`},
		{"too many", `{"sequences":["ACGT","ACGA","ACGC","ACGG","AACG"]}`},
		{"too long", fmt.Sprintf(`{"sequences":[%q,%q]}`, strings.Repeat("A", 51), "ACGT")},
	}
	for _, tc := range cases {
		var out map[string]any
		resp := postJSON(t, ts, "/v1/msa", tc.body, &out)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.name, resp.StatusCode, out)
		}
	}
}

func TestServeMsaLatticeCap413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLatticeBytes: 1024})
	_, seqsJSON := msaFamilyJSON(t, 41, 5, 60)
	var out map[string]any
	resp := postJSON(t, ts, "/v1/msa", fmt.Sprintf(`{"sequences":%s}`, seqsJSON), &out)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", resp.StatusCode, out)
	}
}

func TestServeMsaDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	_, seqsJSON := msaFamilyJSON(t, 51, 4, 20)
	resp := postJSON(t, ts, "/v1/msa", fmt.Sprintf(`{"sequences":%s}`, seqsJSON), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", resp.StatusCode)
	}
}

func TestServeMsaPlan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, seqsJSON := msaFamilyJSON(t, 61, 6, 40)
	var out repro.MSAPlan
	resp := postJSON(t, ts, "/v1/msa/plan", fmt.Sprintf(`{"sequences":%s}`, seqsJSON), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.NumSequences != 6 || len(out.Merges) == 0 || out.PeakLevelBytes == 0 {
		t.Fatalf("plan = %+v", out)
	}
}

func TestServeMsaSerialKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, seqsJSON := msaFamilyJSON(t, 71, 6, 30)
	var fanned, serial MsaResponse
	if resp := postJSON(t, ts, "/v1/msa", fmt.Sprintf(`{"sequences":%s}`, seqsJSON), &fanned); resp.StatusCode != 200 {
		t.Fatalf("fanned status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts, "/v1/msa", fmt.Sprintf(`{"sequences":%s,"serial_merges":true}`, seqsJSON), &serial); resp.StatusCode != 200 {
		t.Fatalf("serial status %d", resp.StatusCode)
	}
	if serial.BatchedMerges != 0 {
		t.Errorf("serial run reported %d batched merges", serial.BatchedMerges)
	}
	if serial.Score != fanned.Score {
		t.Errorf("serial score %d != fanned score %d", serial.Score, fanned.Score)
	}
}
