package pairwise

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

var dnaScheme = scoring.DNADefault()

func codes(t *testing.T, s string) []int8 {
	t.Helper()
	sq, err := seq.New("t", []byte(s), seq.DNA)
	if err != nil {
		t.Fatalf("codes(%q): %v", s, err)
	}
	return sq.Codes()
}

// bruteGlobal enumerates every global alignment recursively; exponential,
// only for tiny inputs. It is the ground-truth oracle.
func bruteGlobal(a, b []int8, sch *scoring.Scheme) mat.Score {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	best := mat.NegInf
	if len(a) > 0 && len(b) > 0 {
		if v := sch.Sub(a[0], b[0]) + bruteGlobal(a[1:], b[1:], sch); v > best {
			best = v
		}
	}
	if len(a) > 0 {
		if v := sch.GapExtend() + bruteGlobal(a[1:], b, sch); v > best {
			best = v
		}
	}
	if len(b) > 0 {
		if v := sch.GapExtend() + bruteGlobal(a, b[1:], sch); v > best {
			best = v
		}
	}
	return best
}

// bruteGlobalAffine enumerates every global alignment under the affine
// gap model; prev is the op of the column before (OpBoth at the start), so
// each maximal run of OpA or OpB pays gapOpen once, as RescoreAffine
// charges it. Exponential, only for tiny inputs.
func bruteGlobalAffine(a, b []int8, sch *scoring.Scheme, prev Op) mat.Score {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	gap := func(op Op) mat.Score {
		if op == prev {
			return sch.GapExtend()
		}
		return sch.GapOpen() + sch.GapExtend()
	}
	best := mat.NegInf
	if len(a) > 0 && len(b) > 0 {
		best = max(best, sch.Sub(a[0], b[0])+bruteGlobalAffine(a[1:], b[1:], sch, OpBoth))
	}
	if len(a) > 0 {
		best = max(best, gap(OpA)+bruteGlobalAffine(a[1:], b, sch, OpA))
	}
	if len(b) > 0 {
		best = max(best, gap(OpB)+bruteGlobalAffine(a, b[1:], sch, OpB))
	}
	return best
}

// affSchemes are DNA schemes spanning the affine range from a zero open
// penalty (the linear model) to a harsh one.
func affSchemes(t *testing.T) []*scoring.Scheme {
	t.Helper()
	var out []*scoring.Scheme
	for _, gp := range [][2]int{{0, -2}, {-2, -1}, {-5, -1}, {-10, -3}} {
		s, err := scoring.DNADefault().WithGaps(gp[0], gp[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func randomCodes(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(4))
	}
	return out
}

func TestGlobalKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want mat.Score
	}{
		{"", "", 0},
		{"A", "A", 2},
		{"A", "C", -1},
		{"A", "", -2},
		{"", "ACG", -6},
		{"ACGT", "ACGT", 8},
		{"ACGT", "AGT", 4},   // one gap: 3 matches + gap = 6-2
		{"AAAA", "TTTT", -4}, // four mismatches beat gap pairs
	}
	for _, c := range cases {
		r := Global(codes(t, c.a), codes(t, c.b), dnaScheme)
		if r.Score != c.want {
			t.Errorf("Global(%q,%q).Score = %d, want %d", c.a, c.b, r.Score, c.want)
		}
		if got, err := Rescore(r.Ops, codes(t, c.a), codes(t, c.b), dnaScheme); err != nil || got != r.Score {
			t.Errorf("Global(%q,%q) rescore = %d (%v), want %d", c.a, c.b, got, err, r.Score)
		}
	}
}

func TestGlobalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 120; trial++ {
		a := randomCodes(rng, rng.Intn(7))
		b := randomCodes(rng, rng.Intn(7))
		want := bruteGlobal(a, b, dnaScheme)
		if got := Global(a, b, dnaScheme).Score; got != want {
			t.Fatalf("trial %d: Global = %d, brute = %d (a=%v b=%v)", trial, got, want, a, b)
		}
		if got := GlobalScore(a, b, dnaScheme); got != want {
			t.Fatalf("trial %d: GlobalScore = %d, brute = %d", trial, got, want)
		}
	}
}

func TestGlobalStrings(t *testing.T) {
	a := seq.MustNew("a", "ACGT", seq.DNA)
	b := seq.MustNew("b", "AGT", seq.DNA)
	r := Global(a.Codes(), b.Codes(), dnaScheme)
	rowA, rowB := r.Strings(a, b)
	if len(rowA) != len(rowB) {
		t.Fatalf("rows differ in length: %q %q", rowA, rowB)
	}
	degap := func(s string) string {
		out := []byte{}
		for i := 0; i < len(s); i++ {
			if s[i] != '-' {
				out = append(out, s[i])
			}
		}
		return string(out)
	}
	if degap(rowA) != "ACGT" || degap(rowB) != "AGT" {
		t.Fatalf("degapped rows %q %q", degap(rowA), degap(rowB))
	}
}

func TestForwardBackwardDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := randomCodes(rng, 3+rng.Intn(20))
		b := randomCodes(rng, 3+rng.Intn(20))
		f := Forward(a, b, dnaScheme)
		bw := Backward(a, b, dnaScheme)
		opt := f.At(len(a), len(b))
		if bw.At(0, 0) != opt {
			t.Fatalf("Backward(0,0) = %d, Forward(n,m) = %d", bw.At(0, 0), opt)
		}
		// Through-cell bound: F+B never exceeds the optimum, and the optimum
		// is attained by at least one cell in every row.
		for i := 0; i <= len(a); i++ {
			attained := false
			for j := 0; j <= len(b); j++ {
				th := f.At(i, j) + bw.At(i, j)
				if th > opt {
					t.Fatalf("through-score %d at (%d,%d) exceeds optimum %d", th, i, j, opt)
				}
				if th == opt {
					attained = true
				}
			}
			if !attained {
				t.Fatalf("row %d: no cell attains the optimum", i)
			}
		}
	}
}

func TestThroughMatchesForwardPlusBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := randomCodes(rng, rng.Intn(24))
		b := randomCodes(rng, rng.Intn(24))
		f := Forward(a, b, dnaScheme)
		bw := Backward(a, b, dnaScheme)
		th := Forward(a, b, dnaScheme)
		AddBackward(th, a, b, dnaScheme)
		opt := f.At(len(a), len(b))
		for i := 0; i <= len(a); i++ {
			for j := 0; j <= len(b); j++ {
				want := f.At(i, j) + bw.At(i, j)
				if got := th.At(i, j); got != want {
					t.Fatalf("trial %d: through plane (%d,%d) = %d, F+B = %d", trial, i, j, got, want)
				}
			}
		}
		// The corner cells are unconstrained, so they hold the optimum.
		if th.At(0, 0) != opt || th.At(len(a), len(b)) != opt {
			t.Fatalf("trial %d: corners %d/%d, optimum %d", trial, th.At(0, 0), th.At(len(a), len(b)), opt)
		}
		mat.PutPlane(f)
		mat.PutPlane(bw)
		mat.PutPlane(th)
	}
}

// reversedBackward is the suffix lattice built the way Backward once was:
// the Forward lattice of the reversed sequences, read with both indices
// flipped.
func reversedBackward(a, b []int8, sch *scoring.Scheme) *mat.Plane {
	n, m := len(a), len(b)
	fr := Forward(reverseCodes(a), reverseCodes(b), sch)
	out := mat.NewPlane(n+1, m+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			out.Set(i, j, fr.At(n-i, m-j))
		}
	}
	mat.PutPlane(fr)
	return out
}

// TestBackwardMatchesReversedForward pins the direct suffix sweep, and
// AddBackward's rolling-row form of it, to the reversed-copy construction
// cell for cell, including empty sequences and a protein scheme.
func TestBackwardMatchesReversedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prot := scoring.BLOSUM62()
	for trial := 0; trial < 60; trial++ {
		sch, alpha := dnaScheme, 4
		if trial%3 == 2 {
			sch, alpha = prot, 20
		}
		a := make([]int8, rng.Intn(30))
		b := make([]int8, rng.Intn(30))
		for _, s := range [][]int8{a, b} {
			for x := range s {
				s[x] = int8(rng.Intn(alpha))
			}
		}
		want := reversedBackward(a, b, sch)
		bw := Backward(a, b, sch)
		f := Forward(a, b, sch)
		th := Forward(a, b, sch)
		AddBackward(th, a, b, sch)
		for i := 0; i <= len(a); i++ {
			for j := 0; j <= len(b); j++ {
				if got := bw.At(i, j); got != want.At(i, j) {
					t.Fatalf("trial %d: Backward(%d,%d) = %d, reversed construction %d", trial, i, j, got, want.At(i, j))
				}
				if got := th.At(i, j); got != f.At(i, j)+want.At(i, j) {
					t.Fatalf("trial %d: AddBackward(%d,%d) = %d, F+B = %d", trial, i, j, got, f.At(i, j)+want.At(i, j))
				}
			}
		}
		mat.PutPlane(bw)
		mat.PutPlane(f)
		mat.PutPlane(th)
	}
}

// TestTraceForwardMatchesGlobal checks that tracing back on a supplied
// Forward plane — the (a, b) plane directly, or the (b, a) plane
// transposed — returns Global(a, b) exactly.
func TestTraceForwardMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		a := randomCodes(rng, rng.Intn(30))
		b := randomCodes(rng, rng.Intn(30))
		want := Global(a, b, dnaScheme)
		fab := Forward(a, b, dnaScheme)
		fba := Forward(b, a, dnaScheme)
		for name, got := range map[string]Result{
			"direct":     TraceForward(fab, a, b, dnaScheme),
			"transposed": TraceForwardT(fba, a, b, dnaScheme),
		} {
			if got.Score != want.Score || string(opsBytes(got.Ops)) != string(opsBytes(want.Ops)) {
				t.Fatalf("trial %d %s: %d %v, Global %d %v", trial, name, got.Score, got.Ops, want.Score, want.Ops)
			}
		}
		mat.PutPlane(fab)
		mat.PutPlane(fba)
	}
}

func opsBytes(ops []Op) []byte {
	out := make([]byte, len(ops))
	for x, op := range ops {
		out[x] = byte(op)
	}
	return out
}

func TestHirschbergEqualsGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		a := randomCodes(rng, rng.Intn(40))
		b := randomCodes(rng, rng.Intn(40))
		g := Global(a, b, dnaScheme)
		h := Hirschberg(a, b, dnaScheme)
		if g.Score != h.Score {
			t.Fatalf("trial %d: Hirschberg = %d, Global = %d", trial, h.Score, g.Score)
		}
		if got, err := Rescore(h.Ops, a, b, dnaScheme); err != nil || got != h.Score {
			t.Fatalf("trial %d: Hirschberg ops rescore %d (%v) != %d", trial, got, err, h.Score)
		}
	}
}

func TestHirschbergEdgeShapes(t *testing.T) {
	for _, c := range []struct{ a, b string }{
		{"", ""}, {"A", ""}, {"", "ACGTACGT"}, {"ACGTACGT", "A"}, {"AC", "AC"},
	} {
		g := Global(codes(t, c.a), codes(t, c.b), dnaScheme)
		h := Hirschberg(codes(t, c.a), codes(t, c.b), dnaScheme)
		if g.Score != h.Score {
			t.Errorf("(%q,%q): Hirschberg %d != Global %d", c.a, c.b, h.Score, g.Score)
		}
	}
}

func TestGlobalAffineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, sch := range affSchemes(t) {
		for trial := 0; trial < 50; trial++ {
			a := randomCodes(rng, rng.Intn(7))
			b := randomCodes(rng, rng.Intn(7))
			r := GlobalAffine(a, b, sch)
			if want := bruteGlobalAffine(a, b, sch, OpBoth); r.Score != want {
				t.Fatalf("open=%d extend=%d trial %d: GlobalAffine = %d, brute force = %d (a=%v b=%v)",
					sch.GapOpen(), sch.GapExtend(), trial, r.Score, want, a, b)
			}
			if got, err := RescoreAffine(r.Ops, a, b, sch); err != nil || got != r.Score {
				t.Fatalf("open=%d extend=%d trial %d: RescoreAffine = %d (%v), reported %d",
					sch.GapOpen(), sch.GapExtend(), trial, got, err, r.Score)
			}
			if na, nb := Consumed(r.Ops); na != len(a) || nb != len(b) {
				t.Fatalf("trial %d: ops consume %d/%d, want %d/%d", trial, na, nb, len(a), len(b))
			}
			if got := GlobalAffineScore(a, b, sch); got != r.Score {
				t.Fatalf("open=%d extend=%d trial %d: GlobalAffineScore = %d, GlobalAffine = %d (a=%v b=%v)",
					sch.GapOpen(), sch.GapExtend(), trial, got, r.Score, a, b)
			}
		}
	}
}

func TestGlobalAffineLinearDegeneration(t *testing.T) {
	// With gapOpen == 0 the affine optimum equals the linear optimum.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		a := randomCodes(rng, rng.Intn(20))
		b := randomCodes(rng, rng.Intn(20))
		lin := Global(a, b, dnaScheme).Score
		aff := GlobalAffine(a, b, dnaScheme).Score
		if lin != aff {
			t.Fatalf("trial %d: affine(open=0) = %d, linear = %d", trial, aff, lin)
		}
	}
}

func TestGlobalAffinePrefersLongGaps(t *testing.T) {
	// With a harsh open penalty, one long gap must beat two short ones.
	sch, err := dnaScheme.WithGaps(-10, -1)
	if err != nil {
		t.Fatal(err)
	}
	a := codes(t, "ACGTACGTAA")
	b := codes(t, "ACGTACGT")
	r := GlobalAffine(a, b, sch)
	if got, err := RescoreAffine(r.Ops, a, b, sch); err != nil || got != r.Score {
		t.Fatalf("affine rescore = %d (%v), reported %d", got, err, r.Score)
	}
	// Count gap runs in the b row.
	runs := 0
	var prev Op = OpBoth
	for _, op := range r.Ops {
		if op == OpA && prev != OpA {
			runs++
		}
		prev = op
	}
	if runs != 1 {
		t.Fatalf("expected a single contiguous gap run, got %d (ops %v)", runs, r.Ops)
	}
}

func TestGlobalAffineKnown(t *testing.T) {
	sch, err := dnaScheme.WithGaps(-3, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Aligning "AAAA" with "AA": two matches (+4) and a gap of length 2
	// (-3 -2) = -1.
	r := GlobalAffine(codes(t, "AAAA"), codes(t, "AA"), sch)
	if r.Score != -1 {
		t.Fatalf("affine score = %d, want -1", r.Score)
	}
}

func TestGlobalAffineEmpty(t *testing.T) {
	sch, _ := dnaScheme.WithGaps(-4, -1)
	if got := GlobalAffine(nil, nil, sch).Score; got != 0 {
		t.Fatalf("affine empty = %d, want 0", got)
	}
	// One sequence empty: one gap run of length 3.
	if got := GlobalAffine(codes(t, "ACG"), nil, sch).Score; got != -7 {
		t.Fatalf("affine vs empty = %d, want -7", got)
	}
}

func TestConsumed(t *testing.T) {
	na, nb := Consumed([]Op{OpBoth, OpA, OpB, OpBoth})
	if na != 3 || nb != 3 {
		t.Fatalf("Consumed = %d,%d want 3,3", na, nb)
	}
}

func TestRescoreRejectsWrongLengths(t *testing.T) {
	if _, err := Rescore([]Op{OpBoth}, codes(t, "AC"), codes(t, "A"), dnaScheme); err == nil {
		t.Fatal("Rescore accepted mismatched consumption")
	}
	if _, err := RescoreAffine([]Op{OpA}, codes(t, "AC"), nil, dnaScheme); err == nil {
		t.Fatal("RescoreAffine accepted mismatched consumption")
	}
}
