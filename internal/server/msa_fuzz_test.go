package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzMsaRequest feeds arbitrary bodies to POST /v1/msa on a server capped
// at four sequences of 50 residues. Every body must be answered with a 2xx
// or a 4xx: malformed or unsatisfiable requests are the client's fault,
// and nothing a body says may panic the handler or surface as a 5xx. The
// one exception is 504, the answer to a request whose own deadline_ms
// expires with fallback off.
func FuzzMsaRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"sequences":["ACGT"]}`,
		`{"sequences":["ACGT","ACGA"],"fasta":">a\nACGT\n"}`,
		`{"sequences":["ACGT","ACGZ"]}`,
		`{"sequences":["ACGT","ACGA"],"alphabet":"klingon"}`,
		`{"sequences":["ACGT","ACGA"],"names":["x"]}`,
		`{"sequences":["ACGT","ACGA","ACGC","ACGG","AACG"]}`,
		`{"sequences":["` + strings.Repeat("A", 51) + `","ACGT"]}`,
		`{"sequences":["ACGTACGT","ACGTTCGT","ACGAACGT","ACGTACGG"],"explain":true}`,
		`{"fasta":">a\nACGTAC\n>b\nACGTTC\n>c\nACCTAC\n","refine_rounds":3,"guide_k":2}`,
		`{"sequences":["ACGT","ACGA","AGGT"],"scheme":"blosum62"}`,
	} {
		f.Add(body)
	}
	s := New(Config{MaxMsaSequences: 4, MaxSequenceLen: 50})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/msa", strings.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}

// FuzzMsaFASTA feeds arbitrary FASTA documents, as the fasta field of a
// request, to POST /v1/msa on a server capped at four sequences of 50
// residues: a malformed document is answered with a 4xx, never a 5xx.
func FuzzMsaFASTA(f *testing.F) {
	for _, doc := range []string{
		"",
		">a\nACGTAC\n>b\nACGTTC\n>c\nACCTAC\n",
		">a\nACGT\n",
		">a\nACGT\n>b\n\n",
		">a\nACGT\n>b\nACGA\n>c\nAGGT\n>d\nACGT\n>e\nACGT\n",
		"no header\nACGT\n",
		">a\nAC GT\r\n>b\nac-gt\n>c\nACGN*\n",
		">a\n" + strings.Repeat("A", 51) + "\n>b\nACGT\n",
		">a b c\nACGT\n>a b c\nACGT\n",
	} {
		f.Add(doc)
	}
	s := New(Config{MaxMsaSequences: 4, MaxSequenceLen: 50})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, doc string) {
		body, err := json.Marshal(map[string]string{"fasta": doc})
		if err != nil {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/msa", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d for FASTA %q: %s", rec.Code, doc, rec.Body.String())
		}
	})
}
