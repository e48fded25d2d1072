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

// boundedKernel abstracts the two Carrillo–Lipman bounded-search kernels so
// the differential suite runs the identical checks against both.
type boundedKernel struct {
	name string
	run  func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options, lower ...mat.Score) (*alignment.Alignment, PruneStats, error)
}

func boundedKernels() []boundedKernel {
	return []boundedKernel{
		{"bounded", AlignBounded},
		{"astar", AlignAStar},
	}
}

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

// TestBoundedKernelsMatchFull pins both bounded kernels bit-identical —
// score AND move sequence — to the full-matrix kernel across schemes,
// shapes, worker counts, and bound tightness. The full kernel's traceback
// preference order is the contract; any divergence in moves means a band
// or frontier truncated an optimal path.
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
		for _, k := range boundedKernels() {
			for _, workers := range []int{1, 2, 4} {
				for _, tight := range []bool{false, true} {
					opt := Options{Workers: workers}
					var lower []mat.Score
					if tight {
						lower = []mat.Score{ref.Score}
					}
					aln, stats, err := k.run(context.Background(), w.tr, w.sch, opt, lower...)
					if err != nil {
						t.Fatalf("%s/%s workers=%d tight=%v: %v", w.name, k.name, workers, tight, err)
					}
					checkAlignment(t, aln, w.sch)
					if aln.Score != ref.Score {
						t.Fatalf("%s/%s workers=%d tight=%v: score %d != full %d",
							w.name, k.name, workers, tight, aln.Score, ref.Score)
					}
					if !sameMoves(aln.Moves, ref.Moves) {
						t.Fatalf("%s/%s workers=%d tight=%v: moves diverge from full traceback\n got %v\nwant %v",
							w.name, k.name, workers, tight, aln.Moves, ref.Moves)
					}
					if stats.Optimum != ref.Score {
						t.Fatalf("%s/%s: stats.Optimum = %d, want %d", w.name, k.name, stats.Optimum, ref.Score)
					}
					if stats.EvaluatedCells <= 0 || stats.EvaluatedCells > stats.TotalCells {
						t.Fatalf("%s/%s: nonsensical stats %+v", w.name, k.name, stats)
					}
				}
			}
		}
	}
}

// TestBoundAdmissibleOnOptimalPath is the quick-check property behind the
// whole construction: with the bound set to the exact optimum — the
// tightest valid value — every cell on the full kernel's optimal path must
// still pass the three-way Carrillo–Lipman test. If this ever fails the
// bound is not admissible and both bounded kernels are unsound.
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
		pre, err := NewPrefix(tr, dnaSch, pairwise.Planes{}, pairwise.Planes{}, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		bc := pre.bounded(ref.Score)
		i, j, k := 0, 0, 0
		if !bc.admissible(0, 0, 0) {
			t.Fatalf("trial %d: origin inadmissible at bound=optimum", trial)
		}
		for _, mv := range ref.Moves {
			di, dj, dk := moveDelta(mv)
			i, j, k = i+di, j+dj, k+dk
			if !bc.admissible(i, j, k) {
				t.Fatalf("trial %d: optimal-path cell (%d,%d,%d) pruned at bound=optimum %d",
					trial, i, j, k, ref.Score)
			}
		}
		pre.Release()
	}
}

// TestBoundedKernelsRejectOversizedBand drives both kernels into their
// memory admission checks with a budget no band can satisfy.
func TestBoundedKernelsRejectOversizedBand(t *testing.T) {
	tr := randomTriple(rand.New(rand.NewSource(7)), 60, 60, 60)
	for _, k := range boundedKernels() {
		_, _, err := k.run(context.Background(), tr, dnaSch, Options{MaxBytes: 4096})
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, want ErrTooLarge", k.name, err)
		}
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

// TestAlignAStarExpandsFewerCellsThanBand sanity-checks the point of the
// frontier variant: on very similar triples the expanded-node count stays
// below the contiguous band's cell count.
func TestAlignAStarExpandsFewerCellsThanBand(t *testing.T) {
	tr := relatedTriple(31, 120, 0.03)
	ref, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, band, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	_, frontier, err := AlignAStar(context.Background(), tr, dnaSch, Options{}, ref.Score)
	if err != nil {
		t.Fatal(err)
	}
	if frontier.EvaluatedCells > band.EvaluatedCells {
		t.Errorf("A* expanded %d nodes, band evaluated %d cells: frontier should be tighter on near-identical triples",
			frontier.EvaluatedCells, band.EvaluatedCells)
	}
}

// TestAlignBoundedOnSuppliedPlanes: given the forward planes a seed has
// already filled, the band kernel returns AlignBounded's exact result.
func TestAlignBoundedOnSuppliedPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		tr := relatedTriple(rng.Int63(), 5+rng.Intn(40), 0.05+0.3*rng.Float64())
		if trial%3 == 0 {
			tr = randomTriple(rng, rng.Intn(20), rng.Intn(20), rng.Intn(20))
		}
		want, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ca, cb, cc, err := prepare(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := AlignBoundedOn(context.Background(), tr, dnaSch, Options{}, pairwise.Forwards(ca, cb, cc, dnaSch, 1))
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

// TestPrefixMatchesStandaloneKernels: a prefix built from swept forward
// and suffix planes counts, fills and searches exactly as the standalone
// kernels do, and on triples short enough that SampleCells reads every
// row of A its estimate is the exact band count, before and after the
// through planes exist.
func TestPrefixMatchesStandaloneKernels(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(bandSampleRows-1)
		if trial%2 == 1 {
			n = 10 + rng.Intn(40)
		}
		tr := relatedTriple(rng.Int63(), n, 0.05+0.3*rng.Float64())
		ca, cb, cc, err := prepare(tr, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		lower := mat.Score(-5 * n)
		wantBand, wantBandSt, err := AlignBounded(ctx, tr, dnaSch, Options{}, lower)
		if err != nil {
			t.Fatal(err)
		}
		wantStar, wantStarSt, err := AlignAStar(ctx, tr, dnaSch, Options{}, lower)
		if err != nil {
			t.Fatal(err)
		}
		for _, astar := range []bool{false, true} {
			fwd, bwd := pairwise.Sweeps(ca, cb, cc, dnaSch, 2)
			pre, err := NewPrefix(tr, dnaSch, fwd, bwd, 2, astar)
			if err != nil {
				t.Fatal(err)
			}
			sampled := pre.SampleCells(lower, math.MaxInt64)
			band := pre.Plan(lower)
			if tr.A.Len()+1 <= bandSampleRows {
				if resampled := pre.SampleCells(lower, math.MaxInt64); sampled != band.Stats().EvaluatedCells || resampled != sampled {
					t.Fatalf("trial %d: sampled %d cells before and %d after the through planes, band holds %d",
						trial, sampled, resampled, band.Stats().EvaluatedCells)
				}
			}
			var (
				got   *alignment.Alignment
				st    PruneStats
				want  *alignment.Alignment
				wantS PruneStats
			)
			if astar {
				got, st, err = pre.AStar(ctx, Options{}, lower)
				want, wantS = wantStar, wantStarSt
			} else {
				got, st, err = band.Fill(ctx, Options{})
				want, wantS = wantBand, wantBandSt
			}
			pre.Release()
			if err != nil {
				t.Fatal(err)
			}
			if st != wantS || !sameMoves(got.Moves, want.Moves) || got.Score != want.Score {
				t.Fatalf("trial %d (astar=%v): prefix run %+v, standalone %+v", trial, astar, st, wantS)
			}
		}
	}
}
