package alignment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
)

// randomMulti builds a structurally valid random Multi: random non-zero
// column masks first, then sequences sized to the per-row consumption
// counts.
func randomMulti(rng *rand.Rand, nRows, nCols int) *Multi {
	letters := seq.DNA.Letters()
	cols := make([]Mask, nCols)
	counts := make([]int, nRows)
	limit := Mask(1)<<uint(nRows) - 1
	for c := range cols {
		m := Mask(rng.Uint64()) & limit
		if m == 0 {
			m = 1 << uint(rng.Intn(nRows))
		}
		cols[c] = m
		for i := 0; i < nRows; i++ {
			if m.Consumes(i) {
				counts[i]++
			}
		}
	}
	seqs := make([]*seq.Sequence, nRows)
	for i := range seqs {
		res := make([]byte, counts[i])
		for j := range res {
			res[j] = letters[rng.Intn(len(letters))]
		}
		seqs[i] = seq.MustNew(fmt.Sprintf("s%d", i), string(res), seq.DNA)
	}
	return &Multi{Seqs: seqs, Cols: cols}
}

// legacyRows is the pre-Multi three-row renderer, kept verbatim as the
// reference the thin wrapper must match byte for byte.
func legacyRows(a *Alignment) (ra, rb, rc string) {
	bufA := make([]byte, 0, len(a.Moves))
	bufB := make([]byte, 0, len(a.Moves))
	bufC := make([]byte, 0, len(a.Moves))
	i, j, k := 0, 0, 0
	for _, m := range a.Moves {
		if m&ConsumeA != 0 {
			bufA = append(bufA, a.Triple.A.At(i))
			i++
		} else {
			bufA = append(bufA, '-')
		}
		if m&ConsumeB != 0 {
			bufB = append(bufB, a.Triple.B.At(j))
			j++
		} else {
			bufB = append(bufB, '-')
		}
		if m&ConsumeC != 0 {
			bufC = append(bufC, a.Triple.C.At(k))
			k++
		} else {
			bufC = append(bufC, '-')
		}
	}
	return string(bufA), string(bufB), string(bufC)
}

// legacyConservationMark is the pre-Multi three-row column annotation:
// '*' all three identical residues, ':' exactly two identical residues,
// ' ' otherwise.
func legacyConservationMark(col [3]int8) byte {
	switch {
	case col[0] >= 0 && col[0] == col[1] && col[1] == col[2]:
		return '*'
	case (col[0] >= 0 && col[0] == col[1]) ||
		(col[0] >= 0 && col[0] == col[2]) ||
		(col[1] >= 0 && col[1] == col[2]):
		return ':'
	default:
		return ' '
	}
}

// legacyFormat is the pre-Multi three-row Format, kept verbatim as the
// byte-identical reference for the wrapper.
func legacyFormat(a *Alignment, w *strings.Builder, width int) {
	if width <= 0 {
		width = 60
	}
	ra, rb, rc := legacyRows(a)
	cols := a.columnCodes()
	marks := make([]byte, len(cols))
	for i, col := range cols {
		marks[i] = legacyConservationMark(col)
	}
	nameW := 0
	for _, n := range []string{a.Triple.A.Name(), a.Triple.B.Name(), a.Triple.C.Name()} {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	if nameW < 4 {
		nameW = 4
	}
	for lo := 0; lo < len(ra) || lo == 0 && len(ra) == 0; lo += width {
		hi := lo + width
		if hi > len(ra) {
			hi = len(ra)
		}
		rows := []struct{ name, body string }{
			{a.Triple.A.Name(), ra[lo:hi]},
			{a.Triple.B.Name(), rb[lo:hi]},
			{a.Triple.C.Name(), rc[lo:hi]},
			{"", string(marks[lo:hi])},
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-*s  %s\n", nameW, r.name, r.body)
		}
		if hi < len(ra) {
			fmt.Fprintln(w)
		}
		if len(ra) == 0 {
			break
		}
	}
}

// randomTriple3 builds a random valid three-row Alignment.
func randomTriple3(rng *rand.Rand, nCols int) *Alignment {
	m := randomMulti(rng, 3, nCols)
	a, err := m.ToAlignment()
	if err != nil {
		panic(err)
	}
	return a
}

func TestWrapperRowsAndFormatByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomTriple3(rng, rng.Intn(150))
		ra, rb, rc := a.Rows()
		lra, lrb, lrc := legacyRows(a)
		if ra != lra || rb != lrb || rc != lrc {
			t.Fatalf("trial %d: wrapper Rows diverged from legacy layout", trial)
		}
		for _, width := range []int{0, 1, 7, 60, 1000} {
			var legacy strings.Builder
			legacyFormat(a, &legacy, width)
			var now strings.Builder
			if err := a.Format(&now, width); err != nil {
				t.Fatalf("trial %d: Format: %v", trial, err)
			}
			if now.String() != legacy.String() {
				t.Fatalf("trial %d width %d: wrapper Format diverged:\n--- legacy\n%s\n--- multi\n%s",
					trial, width, legacy.String(), now.String())
			}
		}
	}
}

func TestWrapperScoresMatchLegacyObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sch := scoring.DNADefault()
	aff, err := sch.WithGaps(-5, -1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		a := randomTriple3(rng, 1+rng.Intn(80))
		// Legacy linear objective: SPColumn summed per column.
		var want int32
		for _, col := range a.columnCodes() {
			want += int32(sch.SPColumn(col[0], col[1], col[2]))
		}
		if got := int32(a.SPScore(sch)); got != want {
			t.Fatalf("trial %d: SPScore=%d, legacy SPColumn sum=%d", trial, got, want)
		}
		if got, want := a.SPScoreAffine(aff), a.Multi().SPScoreAffine(aff); got != want {
			t.Fatalf("trial %d: SPScoreAffine wrapper %d != multi %d", trial, got, want)
		}
	}
}

func TestMultiValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMulti(rng, 4, 30)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid multi rejected: %v", err)
	}
	allGap := &Multi{Seqs: m.Seqs, Cols: append(append([]Mask(nil), m.Cols...), 0)}
	if err := allGap.Validate(); err == nil {
		t.Fatal("all-gap column accepted")
	}
	overflow := &Multi{Seqs: m.Seqs, Cols: append(append([]Mask(nil), m.Cols...), 1<<63)}
	if err := overflow.Validate(); err == nil {
		t.Fatal("out-of-range row bit accepted")
	}
	short := &Multi{Seqs: m.Seqs, Cols: m.Cols[:len(m.Cols)-1]}
	if err := short.Validate(); err == nil {
		t.Fatal("under-consumption accepted")
	}
	tooMany := &Multi{Seqs: make([]*seq.Sequence, MaxRows+1)}
	if err := tooMany.Validate(); err == nil {
		t.Fatalf("%d rows accepted", MaxRows+1)
	}
}

func TestMultiRoundTripAndReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(7)
		m := randomMulti(rng, n, 1+rng.Intn(60))
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rows := m.RowStrings()
		if len(rows) != n {
			t.Fatalf("trial %d: %d rows rendered for %d sequences", trial, len(rows), n)
		}
		for i, r := range rows {
			if len(r) != m.Columns() {
				t.Fatalf("trial %d: row %d has %d columns, want %d", trial, i, len(r), m.Columns())
			}
		}
		perm := rng.Perm(n)
		re, err := m.Reorder(perm)
		if err != nil {
			t.Fatalf("trial %d: Reorder: %v", trial, err)
		}
		if err := re.Validate(); err != nil {
			t.Fatalf("trial %d: reordered multi invalid: %v", trial, err)
		}
		reRows := re.RowStrings()
		for i, p := range perm {
			if reRows[i] != rows[p] {
				t.Fatalf("trial %d: reordered row %d != original row %d", trial, i, p)
			}
		}
		if n == 3 {
			a, err := m.ToAlignment()
			if err != nil {
				t.Fatalf("trial %d: ToAlignment: %v", trial, err)
			}
			back := FromAlignment(a)
			if len(back.Cols) != len(m.Cols) {
				t.Fatalf("trial %d: round trip changed column count", trial)
			}
			for ci := range m.Cols {
				if back.Cols[ci] != m.Cols[ci] {
					t.Fatalf("trial %d: round trip changed column %d", trial, ci)
				}
			}
		}
		cons := m.ConsensusSeq("c")
		if cons.Len() != m.Columns() {
			t.Fatalf("trial %d: consensus has %d residues for %d columns", trial, cons.Len(), m.Columns())
		}
	}
}

func TestMultiReorderRejectsBadPermutations(t *testing.T) {
	m := randomMulti(rand.New(rand.NewSource(1)), 3, 10)
	for _, perm := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if _, err := m.Reorder(perm); err == nil {
			t.Fatalf("permutation %v accepted", perm)
		}
	}
}

func TestWriteAlignedFASTAMultiMatchesTripleWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomTriple3(rng, 70)
	var legacy, multi strings.Builder
	if err := WriteAlignedFASTA(&legacy, a, 60); err != nil {
		t.Fatal(err)
	}
	if err := WriteAlignedFASTAMulti(&multi, a.Multi(), 60); err != nil {
		t.Fatal(err)
	}
	if legacy.String() != multi.String() {
		t.Fatalf("N-row FASTA writer diverged from the triple writer:\n%s\nvs\n%s", legacy.String(), multi.String())
	}
}

// FuzzMultiColumnInvariants drives random mask streams through the Multi
// construction path and checks the column invariants the merge layer relies
// on: equal row lengths, no all-gap columns, and consumption matching the
// sequences exactly.
func FuzzMultiColumnInvariants(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 4, 7})
	f.Add(uint8(5), []byte{31, 1, 16, 9, 2})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nRows uint8, maskBytes []byte) {
		n := int(nRows%8) + 1
		letters := seq.DNA.Letters()
		limit := Mask(1)<<uint(n) - 1
		cols := make([]Mask, 0, len(maskBytes))
		counts := make([]int, n)
		for _, b := range maskBytes {
			m := Mask(b) & limit
			if m == 0 {
				continue
			}
			cols = append(cols, m)
			for i := 0; i < n; i++ {
				if m.Consumes(i) {
					counts[i]++
				}
			}
		}
		seqs := make([]*seq.Sequence, n)
		for i := range seqs {
			res := make([]byte, counts[i])
			for j := range res {
				res[j] = letters[(i+j)%len(letters)]
			}
			seqs[i] = seq.MustNew(fmt.Sprintf("s%d", i), string(res), seq.DNA)
		}
		m := &Multi{Seqs: seqs, Cols: cols}
		if err := m.Validate(); err != nil {
			t.Fatalf("constructed multi invalid: %v", err)
		}
		rows := m.RowStrings()
		for i, r := range rows {
			if len(r) != len(cols) {
				t.Fatalf("row %d has %d columns, want %d", i, len(r), len(cols))
			}
		}
		for c := 0; c < len(cols); c++ {
			all := true
			for i := range rows {
				if rows[i][c] != '-' {
					all = false
				}
			}
			if all {
				t.Fatalf("column %d rendered all gaps", c)
			}
		}
		if got := m.ConsensusSeq("c").Len(); got != len(cols) {
			t.Fatalf("consensus %d residues for %d columns", got, len(cols))
		}
	})
}
