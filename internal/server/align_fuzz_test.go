package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wrongAlphabetBody asks for a protein scheme over DNA residues: a client
// error on every endpoint, never a server one.
const wrongAlphabetBody = `{"a":"ACGT","b":"ACGT","c":"ACGA","scheme":"blosum62"}`

// FuzzAlignRequest feeds arbitrary bodies to POST /v1/align and /v1/plan,
// and wraps each as the single item of a POST /v1/align/batch, on a
// server capped at 16-residue sequences. Every body must be answered with
// a 2xx or a 4xx: nothing a body says may panic a handler or surface as a
// 5xx. The one exception is 504, the answer to a request whose own
// deadline_ms expires with fallback off.
func FuzzAlignRequest(f *testing.F) {
	for _, body := range []string{
		`{"a":`,
		`{"sequence_a":"ACGT"}`,
		`{}`,
		`{"a":"ACGT","b":"ACGT","c":"ACGT","fasta":">x\nACGT"}`,
		`{"a":"ACGT","b":"ACGT","c":"ACGTZ!"}`,
		`{"fasta":"not a fasta document"}`,
		`{"fasta":">x\nACGT\n>y\nACGT"}`,
		`{"a":"ACGT","b":"ACGT","c":"ACGT","alphabet":"klingon"}`,
		`{"a":"ACGT","b":"ACGT","c":"ACGT","algorithm":"quantum"}`,
		`{"a":"ACGT","b":"ACGT","c":"ACGT","scheme":"blosum1"}`,
		`{"a":"` + strings.Repeat("A", 17) + `","b":"ACGT","c":"ACGT"}`,
		`{"a":"ACGT","b":"ACGT","c":"not dna!"}`,
		wrongAlphabetBody,
		`{"a":"MKV","b":"MKL","c":"MRV","alphabet":"protein","scheme":"dna"}`,
		`{"a":"ACGTACGT","b":"ACGTTCGT","c":"ACGAACGT","algorithm":"full","workers":1}`,
		`{"a":"ACGTACGT","b":"ACGTTCGT","c":"ACGAACGT","algorithm":"affine","scheme":"dna"}`,
	} {
		f.Add(body)
	}
	s := New(Config{MaxSequenceLen: 16, CoalesceTick: -1})
	defer s.Close()
	h := s.Handler()
	post := func(t *testing.T, path, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d for body %q: %s", path, rec.Code, body, rec.Body.String())
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		post(t, "/v1/align", body)
		post(t, "/v1/plan", body)
		post(t, "/v1/align/batch", `{"items":[`+body+`]}`)
	})
}

// FuzzAlignFASTA feeds arbitrary FASTA documents, as the fasta field of a
// request, to POST /v1/align and /v1/plan on a server capped at
// 16-residue sequences. However the document is malformed (no records,
// too few or too many, empty or oversized ones, residues outside the
// alphabet, stray text before the first header), the answer is a 2xx or
// a 4xx, never a 5xx.
func FuzzAlignFASTA(f *testing.F) {
	for _, doc := range []string{
		"",
		">x\nACGT",
		">a\nACGT\n>b\nACGA\n>c\nAGGT\n",
		">a\nACGT\n>b\nACGA\n>c\nAGGT\n>d\nACGT\n",
		">a\n\n>b\nACGA\n>c\nAGGT\n",
		"ACGT\n>a\nACGT\n>b\nACGT\n>c\nACGT",
		">a\nAC GT\r\n>b\nac-gt\n>c\nACGN*\n",
		">a\n" + strings.Repeat("A", 17) + "\n>b\nACGT\n>c\nACGT\n",
		">\n>\n>\n",
		";comment\n>a\nACGT\n>b\nACGT\n>c\nACGT\n",
	} {
		f.Add(doc)
	}
	s := New(Config{MaxSequenceLen: 16, CoalesceTick: -1})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, doc string) {
		body, err := json.Marshal(map[string]string{"fasta": doc})
		if err != nil {
			t.Skip()
		}
		for _, path := range []string{"/v1/align", "/v1/plan"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s: status %d for FASTA %q: %s", path, rec.Code, doc, rec.Body.String())
			}
		}
	})
}
