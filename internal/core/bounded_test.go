package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

func sameMoves(a, b []alignment.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBoundedKernelsMatchFull pins the bounded kernel bit-identical —
// score AND move sequence — to the full-matrix kernel across schemes,
// shapes, worker counts, and bound tightness. The full kernel's traceback
// preference order is the contract; any divergence in moves means the
// band truncated an optimal path.
func TestBoundedKernelsMatchFull(t *testing.T) {
	prot, err := scoring.BLOSUM62().WithGaps(0, -3)
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		name string
		sch  *scoring.Scheme
		tr   seq.Triple
	}
	rng := rand.New(rand.NewSource(42))
	var loads []workload
	for trial := 0; trial < 8; trial++ {
		loads = append(loads, workload{
			name: "dna-random",
			sch:  dnaSch,
			tr:   randomTriple(rng, rng.Intn(18), rng.Intn(18), rng.Intn(18)),
		})
	}
	for _, rate := range []float64{0.05, 0.2, 0.4} {
		loads = append(loads, workload{
			name: "dna-related",
			sch:  dnaSch,
			tr:   relatedTriple(rng.Int63(), 25+rng.Intn(20), rate),
		})
	}
	g := seq.NewGenerator(seq.Protein, 271)
	loads = append(loads,
		workload{name: "protein-related", sch: prot, tr: g.RelatedTriple(20, seq.Uniform(0.15))},
		workload{name: "protein-random", sch: prot, tr: seq.Triple{
			A: g.Random("A", 12), B: g.Random("B", 15), C: g.Random("C", 9),
		}},
		workload{name: "dna-ragged", sch: dnaSch, tr: dnaTriple(t, "ACGTACGTACGT", "AC", "GTTTTT")},
		workload{name: "dna-empty", sch: dnaSch, tr: dnaTriple(t, "", "ACG", "AG")},
		workload{name: "dna-all-empty", sch: dnaSch, tr: dnaTriple(t, "", "", "")},
	)

	for _, w := range loads {
		ref, err := AlignParallel(context.Background(), w.tr, w.sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, tight := range []bool{false, true} {
				opt := Options{Workers: workers}
				lower := mat.NegInf
				if tight {
					lower = ref.Score
				}
				aln, stats, err := AlignBounded(context.Background(), w.tr, w.sch, opt, lower)
				if err != nil {
					t.Fatalf("%s workers=%d tight=%v: %v", w.name, workers, tight, err)
				}
				checkAlignment(t, aln, w.sch)
				if aln.Score != ref.Score {
					t.Fatalf("%s workers=%d tight=%v: score %d != full %d",
						w.name, workers, tight, aln.Score, ref.Score)
				}
				if !sameMoves(aln.Moves, ref.Moves) {
					t.Fatalf("%s workers=%d tight=%v: moves diverge from full traceback\n got %v\nwant %v",
						w.name, workers, tight, aln.Moves, ref.Moves)
				}
				if stats.Optimum != ref.Score {
					t.Fatalf("%s: stats.Optimum = %d, want %d", w.name, stats.Optimum, ref.Score)
				}
				if stats.EvaluatedCells <= 0 || stats.EvaluatedCells > stats.TotalCells {
					t.Fatalf("%s: nonsensical stats %+v", w.name, stats)
				}
			}
		}
	}
}

// TestBoundAdmissibleOnOptimalPath is the quick-check property behind the
// whole construction: with the bound set to the exact optimum — the
// tightest valid value — every cell on the full kernel's optimal path must
// still pass the three-way Carrillo–Lipman test. If this ever fails the
// bound is not admissible and the bounded kernel is unsound.
func TestBoundAdmissibleOnOptimalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		var tr seq.Triple
		if trial%2 == 0 {
			tr = randomTriple(rng, 4+rng.Intn(25), 4+rng.Intn(25), 4+rng.Intn(25))
		} else {
			tr = relatedTriple(rng.Int63(), 10+rng.Intn(30), 0.1+0.3*rng.Float64())
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pre, err := NewPrefix(tr, dnaSch, pairwise.Planes{}, mat.NegInf, 1)
		if err != nil {
			t.Fatal(err)
		}
		th := pre.fwd.P
		admissible := func(i, j, k int) bool {
			return th[pairwise.AB].At(i, j)+th[pairwise.AC].At(i, k)+th[pairwise.BC].At(j, k) >= ref.Score
		}
		i, j, k := 0, 0, 0
		if !admissible(0, 0, 0) {
			t.Fatalf("trial %d: origin inadmissible at bound=optimum", trial)
		}
		for _, mv := range ref.Moves {
			di, dj, dk := moveDelta(mv)
			i, j, k = i+di, j+dj, k+dk
			if !admissible(i, j, k) {
				t.Fatalf("trial %d: optimal-path cell (%d,%d,%d) pruned at bound=optimum %d",
					trial, i, j, k, ref.Score)
			}
		}
		pre.Release()
	}
}

// TestBoundedKernelsRejectOversizedBand drives the bounded kernel into its
// memory admission check with a budget no band can satisfy.
func TestBoundedKernelsRejectOversizedBand(t *testing.T) {
	tr := randomTriple(rand.New(rand.NewSource(7)), 60, 60, 60)
	if _, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{MaxBytes: 4096}, mat.NegInf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// TestAlignBoundedPastFullMatrixCeiling is the headline capability: under
// one fixed memory budget the full-matrix kernel refuses a triple more
// than 3x longer than its ceiling, while the bounded kernel aligns it
// exactly. The budget admits the full lattice up to n≈127 (128^3 int32
// cells = 8 MiB); the bounded kernel handles n≈400 at ~96% identity in the
// same envelope because its storage scales with the admissible band.
func TestAlignBoundedPastFullMatrixCeiling(t *testing.T) {
	const budget = 8 << 20
	tr := relatedTriple(2026, 400, 0.04)
	if _, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1, MaxBytes: budget}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("full kernel accepted an oversized lattice: err = %v", err)
	}
	// Exact reference via the linear-space kernel (score-only check: its
	// traceback is divide-and-conquer, not preference-ordered).
	ref, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aln, stats, err := AlignBounded(context.Background(), tr, dnaSch, Options{MaxBytes: budget}, ref.Score)
	if err != nil {
		t.Fatalf("bounded kernel under %d-byte budget: %v", budget, err)
	}
	checkAlignment(t, aln, dnaSch)
	if aln.Score != ref.Score {
		t.Fatalf("bounded %d != linear-space reference %d", aln.Score, ref.Score)
	}
	if f := stats.Fraction(); f > 0.05 {
		t.Errorf("96%%-identity triple evaluated fraction %.3f, expected a thin band", f)
	}
}

// TestAlignBoundedEvaluatedFractionAt80Identity pins the acceptance
// criterion: at >=80% pairwise identity with a tight incumbent, the bounded
// kernel evaluates at most a quarter of the lattice.
func TestAlignBoundedEvaluatedFractionAt80Identity(t *testing.T) {
	tr := relatedTriple(808, 160, 0.2)
	ref, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aln, stats, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Score != ref.Score {
		t.Fatalf("bounded %d != reference %d", aln.Score, ref.Score)
	}
	if f := stats.Fraction(); f > 0.25 {
		t.Errorf("evaluated fraction %.3f at 80%% identity, want <= 0.25", f)
	}
}

// TestAlignBoundedOnSuppliedPlanes: given the forward planes a seed has
// already filled, a prefix's band returns AlignBounded's exact result.
func TestAlignBoundedOnSuppliedPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		tr := relatedTriple(rng.Int63(), 5+rng.Intn(40), 0.05+0.3*rng.Float64())
		if trial%3 == 0 {
			tr = randomTriple(rng, rng.Intn(20), rng.Intn(20), rng.Intn(20))
		}
		want, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, mat.NegInf)
		if err != nil {
			t.Fatal(err)
		}
		ca, cb, cc, err := prepare(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := NewPrefix(tr, dnaSch, pairwise.Forwards(ca, cb, cc, dnaSch, 1), mat.NegInf, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := pre.Plan(mat.NegInf).Fill(context.Background(), Options{})
		pre.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || string(movesOf(got)) != string(movesOf(want)) {
			t.Fatalf("trial %d: supplied planes gave %d, AlignBounded %d", trial, got.Score, want.Score)
		}
	}
}

func movesOf(a *alignment.Alignment) []byte {
	out := make([]byte, len(a.Moves))
	for x, m := range a.Moves {
		out[x] = byte(m)
	}
	return out
}

// TestPrefixMatchesStandaloneKernels: a prefix counts and fills exactly
// as the standalone kernel does, and on triples short enough that
// SampleCells reads every row of A its estimate is the exact band count,
// on the planes of a two-worker and of a one-worker prefix.
func TestPrefixMatchesStandaloneKernels(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(bandSampleRows-1)
		if trial%2 == 1 {
			n = 10 + rng.Intn(40)
		}
		tr := relatedTriple(rng.Int63(), n, 0.05+0.3*rng.Float64())
		lower := mat.Score(-5 * n)
		want, wantSt, err := AlignBounded(ctx, tr, dnaSch, Options{}, lower)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := NewPrefix(tr, dnaSch, pairwise.Planes{}, lower, 2)
		if err != nil {
			t.Fatal(err)
		}
		sampled := pre.SampleCells(lower, math.MaxInt64)
		band := pre.Plan(lower)
		if tr.A.Len()+1 <= bandSampleRows {
			serial, err := NewPrefix(tr, dnaSch, pairwise.Planes{}, lower, 1)
			if err != nil {
				t.Fatal(err)
			}
			resampled := serial.SampleCells(lower, math.MaxInt64)
			serial.Release()
			if sampled != band.Stats().EvaluatedCells || resampled != sampled {
				t.Fatalf("trial %d: sampled %d cells at two workers and %d at one, band holds %d",
					trial, sampled, resampled, band.Stats().EvaluatedCells)
			}
		}
		got, st, err := band.Fill(ctx, Options{})
		pre.Release()
		if err != nil {
			t.Fatal(err)
		}
		if st != wantSt || !sameMoves(got.Moves, want.Moves) || got.Score != want.Score {
			t.Fatalf("trial %d: prefix run %+v, standalone %+v", trial, st, wantSt)
		}
	}
}

// TestReachBoundsThroughPlanes checks the shape bound the band scan skips
// cells by and the pair sweeps sweep inside: every through value of every
// pair lies at or below its reach, and span returns exactly the cells
// whose reach meets a threshold, over DNA and linear-gap BLOSUM62, equal
// and unequal lengths, and empty sequences.
func TestReachBoundsThroughPlanes(t *testing.T) {
	prot, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 24; trial++ {
		sch, tr := dnaSch, relatedTriple(rng.Int63(), 1+rng.Intn(40), 0.4*rng.Float64())
		switch trial % 4 {
		case 1:
			sch, tr = prot, seq.NewGenerator(seq.Protein, rng.Int63()).RelatedTriple(1+rng.Intn(40), seq.Uniform(0.3*rng.Float64()))
		case 2:
			tr = randomTriple(rng, rng.Intn(30), rng.Intn(30), rng.Intn(30))
		}
		ca, cb, cc, err := prepare(tr, sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2][]int8{{ca, cb}, {ca, cc}, {cb, cc}} {
			x, y := pair[0], pair[1]
			f, bw := pairwise.Forward(x, y, sch), pairwise.Backward(x, y, sch)
			r := pairwise.NewReach(len(x), len(y), sch)
			base := r.At(0, len(y)) // no residue pair fits through (0, ny)
			for u := 0; u <= len(x); u++ {
				for v := 0; v <= len(y); v++ {
					if got := f.At(u, v) + bw.At(u, v); got > r.At(u, v) {
						t.Fatalf("trial %d: T[%d][%d] = %d above its reach %d", trial, u, v, got, r.At(u, v))
					}
				}
				peak := r.At(u, min(u, len(y)))
				for _, cut := range []mat.Score{peak + 1, peak, f.At(u, 0) + bw.At(u, 0), f.At(len(x), len(y)) - 5, base, base - 1} {
					lo, hi := r.Band(cut).Span(u)
					for v := 0; v <= len(y); v++ {
						if in := v >= lo && v < hi; in != (r.At(u, v) >= cut) {
							t.Fatalf("trial %d row %d: span(%d) = [%d, %d) but reach at %d is %d", trial, u, cut, lo, hi, v, r.At(u, v))
						}
					}
				}
			}
			mat.PutPlane(f)
			mat.PutPlane(bw)
		}
	}
}
