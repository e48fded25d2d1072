// Package seq defines biological sequences, their alphabets, FASTA I/O, and
// deterministic synthetic-data generators used by the alignment experiments.
//
// Sequences are stored as validated, upper-cased byte slices. An Alphabet
// maps residue letters to small dense codes so that scoring tables can be
// flat arrays indexed by code rather than maps keyed by byte.
package seq

import (
	"fmt"
	"strings"
)

// Alphabet describes a residue alphabet. The zero value is unusable; use
// one of the package-level alphabets (DNA, RNA, Protein) or NewAlphabet.
type Alphabet struct {
	name    string
	letters string    // canonical residue letters, index == code
	code    [256]int8 // letter (upper or lower case) -> code, -1 if invalid
}

// NewAlphabet builds an alphabet from a name and its canonical letters.
// Letters must be distinct ASCII uppercase characters.
func NewAlphabet(name, letters string) (*Alphabet, error) {
	if letters == "" {
		return nil, fmt.Errorf("seq: alphabet %q has no letters", name)
	}
	a := &Alphabet{name: name, letters: letters}
	for i := range a.code {
		a.code[i] = -1
	}
	for i := 0; i < len(letters); i++ {
		c := letters[i]
		if c < 'A' || c > 'Z' {
			return nil, fmt.Errorf("seq: alphabet %q: letter %q is not ASCII uppercase", name, c)
		}
		if a.code[c] != -1 {
			return nil, fmt.Errorf("seq: alphabet %q: duplicate letter %q", name, c)
		}
		a.code[c] = int8(i)
		a.code[c+'a'-'A'] = int8(i) // accept lower case on input
	}
	return a, nil
}

func mustAlphabet(name, letters string) *Alphabet {
	a, err := NewAlphabet(name, letters)
	if err != nil {
		panic(err)
	}
	return a
}

// Package-level alphabets.
var (
	// DNA is the four-letter nucleotide alphabet plus N for "any base".
	DNA = mustAlphabet("dna", "ACGTN")
	// RNA is the four-letter ribonucleotide alphabet plus N.
	RNA = mustAlphabet("rna", "ACGUN")
	// Protein is the twenty standard amino acids plus B, Z, X ambiguity
	// codes, in the residue order conventionally used by BLOSUM tables.
	Protein = mustAlphabet("protein", "ARNDCQEGHILKMFPSTWYVBZX")
)

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of distinct residue codes.
func (a *Alphabet) Size() int { return len(a.letters) }

// Letters returns the canonical residue letters in code order.
func (a *Alphabet) Letters() string { return a.letters }

// Code returns the dense code for letter c, or -1 if c is not in the
// alphabet. Lower-case letters are accepted.
func (a *Alphabet) Code(c byte) int8 { return a.code[c] }

// Letter returns the canonical letter for a code.
func (a *Alphabet) Letter(code int8) byte { return a.letters[code] }

// Valid reports whether every byte of s is a letter of the alphabet.
func (a *Alphabet) Valid(s []byte) bool {
	for _, c := range s {
		if a.code[c] < 0 {
			return false
		}
	}
	return true
}

// Sequence is a named, validated residue string over a fixed alphabet.
type Sequence struct {
	name     string
	residues []byte // canonical upper-case letters
	codes    []int8 // the residues' alphabet codes, encoded once
	alpha    *Alphabet
}

// newSequence builds a Sequence over canonical residues, encoding their
// alphabet codes once.
func newSequence(name string, residues []byte, alpha *Alphabet) *Sequence {
	codes := make([]int8, len(residues))
	for i, c := range residues {
		codes[i] = alpha.Code(c)
	}
	return &Sequence{name: name, residues: residues, codes: codes, alpha: alpha}
}

// New validates residues against alpha and returns a Sequence. Lower-case
// input is canonicalized to upper case. The residue slice is copied.
func New(name string, residues []byte, alpha *Alphabet) (*Sequence, error) {
	if alpha == nil {
		return nil, fmt.Errorf("seq: sequence %q: nil alphabet", name)
	}
	canon := make([]byte, len(residues))
	for i, c := range residues {
		code := alpha.Code(c)
		if code < 0 {
			return nil, fmt.Errorf("seq: sequence %q: invalid %s residue %q at position %d",
				name, alpha.Name(), c, i)
		}
		canon[i] = alpha.Letter(code)
	}
	return newSequence(name, canon, alpha), nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(name, residues string, alpha *Alphabet) *Sequence {
	s, err := New(name, []byte(residues), alpha)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the sequence name.
func (s *Sequence) Name() string { return s.name }

// Len returns the number of residues.
func (s *Sequence) Len() int { return len(s.residues) }

// Alphabet returns the sequence's alphabet.
func (s *Sequence) Alphabet() *Alphabet { return s.alpha }

// At returns the residue letter at position i.
func (s *Sequence) At(i int) byte { return s.residues[i] }

// Residues returns a copy of the residue letters.
func (s *Sequence) Residues() []byte {
	out := make([]byte, len(s.residues))
	copy(out, s.residues)
	return out
}

// String returns the residues as a string.
func (s *Sequence) String() string { return string(s.residues) }

// Codes returns the dense alphabet codes of the residues; DP kernels index
// scoring tables with them. The codes are encoded once, when the sequence
// is built, and every call returns the same slice: callers must treat it
// as read-only.
func (s *Sequence) Codes() []int8 { return s.codes }

// Slice returns the subsequence [lo, hi) as a new Sequence named
// "name[lo:hi)".
func (s *Sequence) Slice(lo, hi int) *Sequence {
	if lo < 0 || hi > len(s.residues) || lo > hi {
		panic(fmt.Sprintf("seq: Slice(%d, %d) out of range for length %d", lo, hi, len(s.residues)))
	}
	sub := make([]byte, hi-lo)
	copy(sub, s.residues[lo:hi])
	return newSequence(fmt.Sprintf("%s[%d:%d)", s.name, lo, hi), sub, s.alpha)
}

// Reverse returns a new Sequence with the residues in reverse order.
func (s *Sequence) Reverse() *Sequence {
	rev := make([]byte, len(s.residues))
	for i, c := range s.residues {
		rev[len(rev)-1-i] = c
	}
	return newSequence(s.name+".rev", rev, s.alpha)
}

// ReverseComplement returns the reverse complement of a DNA or RNA
// sequence (N maps to N); it errors for other alphabets. Aligning against
// the opposite strand is ReverseComplement plus a regular alignment.
func (s *Sequence) ReverseComplement() (*Sequence, error) {
	var comp map[byte]byte
	switch s.alpha {
	case DNA:
		comp = map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}
	case RNA:
		comp = map[byte]byte{'A': 'U', 'U': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}
	default:
		return nil, fmt.Errorf("seq: reverse complement undefined for alphabet %q", s.alpha.Name())
	}
	rc := make([]byte, len(s.residues))
	for i, c := range s.residues {
		rc[len(rc)-1-i] = comp[c]
	}
	return newSequence(s.name+".rc", rc, s.alpha), nil
}

// Equal reports whether two sequences have identical residues (names and
// alphabets are not compared).
func (s *Sequence) Equal(o *Sequence) bool {
	return string(s.residues) == string(o.residues)
}

// Identity returns the fraction of positions at which s and o carry the
// same residue, over the shorter length; it returns 1 for two empty
// sequences. This is a cheap, alignment-free similarity proxy used when
// reporting workload characteristics.
func Identity(s, o *Sequence) float64 {
	n := s.Len()
	if o.Len() < n {
		n = o.Len()
	}
	if n == 0 {
		return 1
	}
	same := 0
	for i := 0; i < n; i++ {
		if s.At(i) == o.At(i) {
			same++
		}
	}
	return float64(same) / float64(n)
}

// Triple bundles the three input sequences of a three-way alignment.
type Triple struct {
	A, B, C *Sequence
}

// Validate checks that all three sequences are present and share one
// alphabet.
func (t Triple) Validate() error {
	if t.A == nil || t.B == nil || t.C == nil {
		return fmt.Errorf("seq: triple is missing a sequence")
	}
	if t.A.Alphabet() != t.B.Alphabet() || t.A.Alphabet() != t.C.Alphabet() {
		return fmt.Errorf("seq: triple mixes alphabets %s/%s/%s",
			t.A.Alphabet().Name(), t.B.Alphabet().Name(), t.C.Alphabet().Name())
	}
	return nil
}

// Describe returns a short human-readable summary like "A=120 B=118 C=121 (dna)".
func (t Triple) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A=%d B=%d C=%d", t.A.Len(), t.B.Len(), t.C.Len())
	fmt.Fprintf(&b, " (%s)", t.A.Alphabet().Name())
	return b.String()
}
