package alignment

import (
	"strings"
	"testing"

	"repro/internal/scoring"
	"repro/internal/seq"
)

func triple(t *testing.T, a, b, c string) seq.Triple {
	t.Helper()
	return seq.Triple{
		A: seq.MustNew("A", a, seq.DNA),
		B: seq.MustNew("B", b, seq.DNA),
		C: seq.MustNew("C", c, seq.DNA),
	}
}

func TestMoveString(t *testing.T) {
	cases := []struct {
		m    Move
		want string
	}{
		{MoveXXX, "XXX"}, {MoveXGG, "XGG"}, {MoveGXG, "GXG"},
		{MoveGGX, "GGX"}, {MoveXXG, "XXG"}, {MoveXGX, "XGX"}, {MoveGXX, "GXX"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("Move(%d).String() = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestMoveValid(t *testing.T) {
	if Move(0).Valid() {
		t.Error("all-gap move reported valid")
	}
	if Move(8).Valid() {
		t.Error("move 8 reported valid")
	}
	for m := Move(1); m <= 7; m++ {
		if !m.Valid() {
			t.Errorf("move %d reported invalid", m)
		}
	}
}

func TestRowsAndValidate(t *testing.T) {
	a := &Alignment{
		Triple: triple(t, "AC", "AG", "A"),
		Moves:  []Move{MoveXXX, MoveXXG},
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ra, rb, rc := a.Rows()
	if ra != "AC" || rb != "AG" || rc != "A-" {
		t.Fatalf("Rows = %q %q %q", ra, rb, rc)
	}
}

func TestValidateCatchesBadConsumption(t *testing.T) {
	a := &Alignment{
		Triple: triple(t, "AC", "AG", "A"),
		Moves:  []Move{MoveXXX}, // consumes only 1 of A and B
	}
	if err := a.Validate(); err == nil {
		t.Fatal("under-consumption accepted")
	}
	b := &Alignment{
		Triple: triple(t, "A", "A", "A"),
		Moves:  []Move{MoveXXX, Move(0)},
	}
	if err := b.Validate(); err == nil {
		t.Fatal("all-gap column accepted")
	}
}

func TestSPScore(t *testing.T) {
	sch := scoring.DNADefault()
	// Columns: (A,A,A) = 6; (C,G,-) = -1 -2 -2 = -5.
	a := &Alignment{
		Triple: triple(t, "AC", "AG", "A"),
		Moves:  []Move{MoveXXX, MoveXXG},
	}
	if got := a.SPScore(sch); got != 1 {
		t.Fatalf("SPScore = %d, want 1", got)
	}
}

func TestSPScoreAffineEqualsLinearWhenOpenZero(t *testing.T) {
	sch := scoring.DNADefault() // gapOpen == 0
	a := &Alignment{
		Triple: triple(t, "ACGT", "AG", "ACG"),
		Moves:  []Move{MoveXXX, MoveXGX, MoveXXX, MoveXGG},
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if lin, aff := a.SPScore(sch), a.SPScoreAffine(sch); lin != aff {
		t.Fatalf("open=0: linear %d != affine %d", lin, aff)
	}
}

func TestSPScoreAffineCountsRuns(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-5, -1)
	if err != nil {
		t.Fatal(err)
	}
	// A = "AAAA", B = "AA", C = "AAAA" aligned with B gapped in the middle
	// two columns: B row is A--A.
	a := &Alignment{
		Triple: triple(t, "AAAA", "AA", "AAAA"),
		Moves:  []Move{MoveXXX, MoveXGX, MoveXGX, MoveXXX},
	}
	// Pairs: A/B: 2 subs (2*2) + gap run len 2 (-5 -2) = -3
	//        A/C: 4 subs = 8
	//        B/C: same as A/B = -3
	want := int32(-3 + 8 - 3)
	if got := a.SPScoreAffine(sch); got != want {
		t.Fatalf("SPScoreAffine = %d, want %d", got, want)
	}
}

func TestSPScoreAffineGapRunsSpanGapGapColumns(t *testing.T) {
	sch, err := scoring.DNADefault().WithGaps(-5, -1)
	if err != nil {
		t.Fatal(err)
	}
	// B/C pair sees columns: (A,A) sub, then (-, -) removed, then (-,A)... construct:
	// Moves: XXX, XGG, GXX — B row: X - X ; C row: X - X.
	// For pair B/C the middle column is gap-gap and must not split runs.
	a := &Alignment{
		Triple: triple(t, "AAA", "AA", "AA"),
		Moves:  []Move{MoveXXX, MoveXGG, MoveGXX},
	}
	// Pair B/C induced alignment: (A,A), (A,A) — no gaps at all.
	// Pair A/B: (A,A), (A,-), (-,A): two single gaps, each opens.
	// Pair A/C: same as A/B.
	// subs: B/C 2 matches = 4; A/B 1 match + two gaps = 2 -1-5 -1-5 = -10; A/C same.
	want := int32(4 - 10 - 10)
	if got := a.SPScoreAffine(sch); got != want {
		t.Fatalf("SPScoreAffine = %d, want %d", got, want)
	}
}

func TestComputeStats(t *testing.T) {
	a := &Alignment{
		Triple: triple(t, "AC", "AG", "A"),
		Moves:  []Move{MoveXXX, MoveXXG},
	}
	st := a.ComputeStats()
	if st.Columns != 2 || st.FullColumns != 1 || st.GapColumns != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Identity3 != 1.0 {
		t.Errorf("Identity3 = %v, want 1.0 (the full column is AAA)", st.Identity3)
	}
	// Pairs: col0 has 3 residue pairs all identical; col1 has 1 pair (A/B
	// residues C,G) not identical: 3/4.
	if st.PairIdentity != 0.75 {
		t.Errorf("PairIdentity = %v, want 0.75", st.PairIdentity)
	}
	if st.GapFraction != 1.0/6.0 {
		t.Errorf("GapFraction = %v, want 1/6", st.GapFraction)
	}
}

func TestFormat(t *testing.T) {
	a := &Alignment{
		Triple: triple(t, "ACGTACGT", "ACGTACGA", "ACTTACG"),
		Moves: []Move{
			MoveXXX, MoveXXX, MoveXXX, MoveXXX, MoveXXX, MoveXXX, MoveXXX, MoveXXG,
		},
	}
	var b strings.Builder
	if err := a.Format(&b, 4); err != nil {
		t.Fatalf("Format: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "A     ACGT") {
		t.Errorf("missing wrapped first block:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("missing conservation marks:\n%s", out)
	}
	// Two blocks of 4 columns separated by a blank line.
	if got := strings.Count(out, "\n\n"); got != 1 {
		t.Errorf("expected 1 block separator, got %d:\n%s", got, out)
	}
}

func TestFormatEmptyAlignment(t *testing.T) {
	a := &Alignment{Triple: triple(t, "", "", ""), Moves: nil}
	var b strings.Builder
	if err := a.Format(&b, 10); err != nil {
		t.Fatalf("Format empty: %v", err)
	}
	if !strings.Contains(b.String(), "A") {
		t.Errorf("empty alignment should still print names:\n%q", b.String())
	}
}

func TestConservationMark(t *testing.T) {
	cases := []struct {
		col  [3]int8
		want byte
	}{
		{[3]int8{0, 0, 0}, '*'},
		{[3]int8{0, 0, 1}, ':'},
		{[3]int8{0, 1, 2}, ' '},
		{[3]int8{0, 0, -1}, ':'},
		{[3]int8{0, -1, -1}, ' '},
		{[3]int8{-1, 2, 2}, ':'},
	}
	for _, c := range cases {
		if got := conservationMarkN(c.col[:]); got != c.want {
			t.Errorf("conservationMarkN(%v) = %q, want %q", c.col, got, c.want)
		}
	}
}
