package seq

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFASTA checks the parser never panics and that successful parses
// round-trip through WriteFASTA.
func FuzzReadFASTA(f *testing.F) {
	f.Add(">a\nACGT\n>b\nacgt\n")
	f.Add(">x desc here\nACGT\nNNNN\n; comment\n>y\n\nGG\n")
	f.Add("")
	f.Add("ACGT\n")
	f.Add(">\n>\n")
	f.Add(">a\nAC!T\n")
	f.Fuzz(func(t *testing.T, in string) {
		seqs, err := ReadFASTA(strings.NewReader(in), DNA)
		if err != nil {
			return
		}
		if len(seqs) == 0 {
			t.Fatal("nil error with zero records")
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, seqs, 60); err != nil {
			t.Fatalf("WriteFASTA after successful parse: %v", err)
		}
		back, err := ReadFASTA(&buf, DNA)
		if err != nil {
			t.Fatalf("round trip failed: %v\noriginal input: %q", err, in)
		}
		if len(back) != len(seqs) {
			t.Fatalf("round trip record count %d != %d", len(back), len(seqs))
		}
		for i := range seqs {
			if !seqs[i].Equal(back[i]) {
				t.Fatalf("record %d changed: %q -> %q", i, seqs[i].String(), back[i].String())
			}
		}
	})
}

// FuzzNewSequence checks validation never panics and canonicalization is
// idempotent.
func FuzzNewSequence(f *testing.F) {
	f.Add("acgtACGTnN")
	f.Add("")
	f.Add("ZZZ")
	f.Fuzz(func(t *testing.T, residues string) {
		s, err := New("f", []byte(residues), DNA)
		if err != nil {
			return
		}
		again, err := New("f", []byte(s.String()), DNA)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if !s.Equal(again) {
			t.Fatalf("canonicalization not idempotent: %q -> %q", s.String(), again.String())
		}
	})
}

// FuzzKmerProfileMatchesReference checks the packed k-mer profile against
// the map-based reference profile on arbitrary residue strings: totals,
// per-k-mer counts, distance and identity must agree bit for bit, on
// both sides of the packed-prefix boundary (k > packMax).
func FuzzKmerProfileMatchesReference(f *testing.F) {
	f.Add("ACGTACGTAC", "ACGTTCGTAC", uint8(3), uint8(0))
	f.Add("AAAAAAAAAAAAAAAAAAAA", "AAAAAAAAAAAAAAAAAAAC", uint8(13), uint8(2))
	f.Add("ARNDCQEGHILKMARNDCQEGHILKF", "ARNDCQEGHILKFARNDCQEGHILKM", uint8(13), uint8(2))
	f.Add("", "ACGU", uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, a, b string, k, alpha uint8) {
		al := []*Alphabet{DNA, RNA, Protein}[int(alpha)%3]
		keep := func(s string) string {
			var out []byte
			for i := 0; i < len(s); i++ {
				if al.Code(s[i]) >= 0 {
					out = append(out, s[i])
				}
			}
			return string(out)
		}
		sa, sb := MustNew("a", keep(a), al), MustNew("b", keep(b), al)
		checkAgainstRef(t, sa, sb, 1+int(k)%24)
	})
}
