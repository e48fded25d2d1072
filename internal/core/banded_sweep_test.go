package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// sweepPoison is what the arena's buffers hold before a banded sweep: a
// cell a reader touches but no sweep wrote would read it and pass every
// bound test.
const sweepPoison mat.Score = 1 << 28

// poisonArena parks buffers full of sweepPoison in the arena for every
// plane and row size a prefix over tr sweeps, so that the sweeps draw
// them instead of fresh zeroed memory.
func poisonArena(tr seq.Triple) {
	na, nb, nc := tr.A.Len(), tr.B.Len(), tr.C.Len()
	for _, size := range []int{(na + 1) * (nb + 1), (na + 1) * (nc + 1), (nb + 1) * (nc + 1), nb + 1, nc + 1} {
		var bufs [][]mat.Score
		for range 8 {
			s := mat.GetScores(size)
			for x := range s {
				s[x] = sweepPoison
			}
			bufs = append(bufs, s)
		}
		for _, s := range bufs {
			mat.PutScores(s)
		}
	}
}

// fullPrefix is the prefix NewPrefix would build at lower on full planes:
// every pair's Forward and Backward plane swept in full (pairwise.Forward
// and Backward) and summed into through planes.
func fullPrefix(t *testing.T, tr seq.Triple, sch *scoring.Scheme, lower mat.Score) (*Prefix, [3]*mat.Plane, [3]*mat.Plane) {
	t.Helper()
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		t.Fatal(err)
	}
	trivial, err := TrivialAlignment(tr, sch)
	if err != nil {
		t.Fatal(err)
	}
	var f, b [3]*mat.Plane
	for x, pair := range [3][2][]int8{{ca, cb}, {ca, cc}, {cb, cc}} {
		f[x], b[x] = pairwise.Forward(pair[0], pair[1], sch), pairwise.Backward(pair[0], pair[1], sch)
	}
	p := &Prefix{tr: tr, sch: sch, ca: ca, cb: cb, cc: cc, bound: max(lower, trivial.Score)}
	for x := range f {
		p.fwd.P[x] = mat.GetPlane(f[x].Rows(), f[x].Cols())
		p.fwd.P[x].CopyFrom(f[x])
		th := p.fwd.P[x].Cells()
		for c, v := range b[x].Cells() {
			th[c] += v
		}
	}
	return p, f, b
}

// bandFirstTrail runs what plan.RunBandFirst runs after the seed on pre,
// under a band ceiling, and reports every decision it takes with the
// result: the sampled estimate, the planned band, the switch, and the
// score, moves and PruneStats of the band that ran.
func bandFirstTrail(ctx context.Context, pre *Prefix, star, seed *alignment.Alignment, upper mat.Score, ceiling int64, workers int) string {
	trail := ""
	if star.Score < upper {
		est := pre.SampleCells(star.Score, ceiling)
		trail += fmt.Sprintf("sampled %d; ", est)
		if est > ceiling {
			return trail + "dense"
		}
	}
	band := pre.Plan(seed.Score)
	planned := band.Stats()
	trail += fmt.Sprintf("planned %+v; ", planned)
	if planned.EvaluatedCells > ceiling {
		return trail + "dense"
	}
	aln, st, err := band.Fill(ctx, Options{Workers: workers})
	if err != nil {
		return trail + err.Error()
	}
	return trail + fmt.Sprintf("%d %x %+v", aln.Score, movesOf(aln), st)
}

// TestBandedSweepsExactWhereAdmissible is the differential test of the
// banded pair sweeps against the full-plane construction, drawn from an
// arena poisoned with a large positive value. At each lower bound L, with
// th0 a pair's threshold L − (the other two pair optima), the banded
// through planes equal the full ones on every cell whose through value
// reaches th0, and stay at or below them on the rest of th0's reach band,
// every cell a scan reads. Center-star on the banded forward planes, which
// traces the optimal paths, equals CenterStar, and band-first runs (the
// sampled estimate, the planned band, the switch to the dense fallback,
// and what ran) and explicit bounded plans return the same scores, moves
// and PruneStats on both, at one and two workers, over DNA and linear-gap
// BLOSUM62, 55–99% identity, random triples, a triple whose first forward
// band misses its optimal paths, and unequal, truncated and empty lengths.
func TestBandedSweepsExactWhereAdmissible(t *testing.T) {
	prot, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2828))
	type tcase struct {
		name string
		tr   seq.Triple
		sch  *scoring.Scheme
	}
	dna := seq.NewGenerator(seq.DNA, 28)
	pg := seq.NewGenerator(seq.Protein, 29)
	uniform := func(r float64) seq.MutationModel {
		return seq.MutationModel{SubstitutionRate: r, InsertionRate: r / 4, DeletionRate: r / 4}
	}
	piece := func(n int) string { return dna.Random("", n).String() }
	x, y, z, z2 := piece(30), piece(90), piece(20), piece(20)
	var cases []tcase
	for _, sub := range []float64{0.26, 0.16, 0.1, 0.05, 0.01, 0.005} {
		cases = append(cases, tcase{fmt.Sprintf("dna-sub%.3f", sub), dna.TripleWithLengths(90, 90, 90, uniform(sub)), dnaSch})
	}
	cases = append(cases,
		tcase{"dna-random", randomTriple(rng, 80, 70, 85), dnaSch},
		tcase{"dna-unequal", dna.TripleWithLengths(100, 85, 70, uniform(0.05)), dnaSch},
		tcase{"dna-truncated", dna.TripleWithLengths(100, 80, 40, uniform(0.1)), dnaSch},
		tcase{"dna-short", randomTriple(rng, 12, 9, 14), dnaSch},
		// A 20-residue block moved to the end: the optimal paths leave
		// the first forward band, which must widen.
		tcase{"dna-moved-block", dnaTriple(t, x+z+y, x+y+z2, x+z+y), dnaSch},
		tcase{"dna-empty", dnaTriple(t, "", "ACGTTGCA", "ACTTGA"), dnaSch},
		tcase{"protein-related", pg.TripleWithLengths(70, 66, 72, uniform(0.15)), prot},
		tcase{"protein-random", seq.Triple{A: pg.Random("A", 50), B: pg.Random("B", 45), C: pg.Random("C", 55)}, prot},
	)
	poisoned := 0
	for _, c := range cases {
		ca, cb, cc, err := prepare(c.tr, c.sch)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := AlignParallel(ctx, c.tr, c.sch, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantStar, err := msa.CenterStar(c.tr, c.sch)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			poisonArena(c.tr)
			fwd := pairwise.Forwards(ca, cb, cc, c.sch, workers)
			for _, pl := range fwd.P {
				for _, v := range pl.Cells() {
					if v == sweepPoison {
						poisoned++
						break
					}
				}
			}
			star, upper, err := msa.CenterStarOn(c.tr, c.sch, fwd)
			fwd.Release()
			if err != nil {
				t.Fatal(err)
			}
			if star.Score != wantStar.Score || string(movesOf(star)) != string(movesOf(wantStar)) {
				t.Fatalf("%s workers=%d: center-star on banded planes scores %d, on full ones %d", c.name, workers, star.Score, wantStar.Score)
			}
			seed, err := msa.RefineBelow(ctx, star, upper, c.sch)
			if err != nil {
				t.Fatal(err)
			}
			for _, lower := range []mat.Score{mat.NegInf, star.Score, ref.Score} {
				name := fmt.Sprintf("%s workers=%d lower=%d", c.name, workers, lower)
				poisonArena(c.tr)
				got, err := NewPrefix(c.tr, c.sch, pairwise.Planes{}, lower, workers)
				if err != nil {
					t.Fatal(err)
				}
				want, f, b := fullPrefix(t, c.tr, c.sch, lower)
				checkBandedPlanes(t, name, got, f, b)
				for x := range f {
					mat.PutPlane(f[x])
					mat.PutPlane(b[x])
				}
				for _, limit := range []int64{0, 500, math.MaxInt64} {
					if g, w := got.SampleCells(lower, limit), want.SampleCells(lower, limit); g != w {
						t.Fatalf("%s: SampleCells(%d) = %d, full planes %d", name, limit, g, w)
					}
				}
				gb, wb := got.Plan(lower), want.Plan(lower)
				if gb.Stats() != wb.Stats() || fmt.Sprint(gb.jLo, gb.jHi, gb.kLo, gb.kHi) != fmt.Sprint(wb.jLo, wb.jHi, wb.kLo, wb.kHi) {
					t.Fatalf("%s: planned band %+v, full planes %+v", name, gb.Stats(), wb.Stats())
				}
				ga, gs, gerr := gb.Fill(ctx, Options{Workers: workers})
				wa, ws, werr := wb.Fill(ctx, Options{Workers: workers})
				if gerr != nil || werr != nil || gs != ws || ga.Score != ref.Score || string(movesOf(ga)) != string(movesOf(wa)) {
					t.Fatalf("%s: bounded run %+v (%v), full planes %+v (%v)", name, gs, gerr, ws, werr)
				}
				got.Release()
				want.Release()
			}
			// Band-first runs at the seed, as RunBandFirst makes them: a
			// prefix at center-star's bound, with ceilings on either side
			// of the band.
			for _, ceiling := range []int64{0, 2000, math.MaxInt64} {
				poisonArena(c.tr)
				got, err := NewPrefix(c.tr, c.sch, pairwise.Planes{}, star.Score, workers)
				if err != nil {
					t.Fatal(err)
				}
				want, f, b := fullPrefix(t, c.tr, c.sch, star.Score)
				for x := range f {
					mat.PutPlane(f[x])
					mat.PutPlane(b[x])
				}
				g := bandFirstTrail(ctx, got, star, seed, upper, ceiling, workers)
				w := bandFirstTrail(ctx, want, star, seed, upper, ceiling, workers)
				if g != w {
					t.Fatalf("%s workers=%d ceiling=%d: band-first run\n got %s\nwant %s", c.name, workers, ceiling, g, w)
				}
				got.Release()
				want.Release()
			}
		}
	}
	if poisoned == 0 {
		t.Fatal("no banded sweep drew a poisoned buffer: the arena check never ran")
	}
}

// checkBandedPlanes compares a prefix's banded through planes with the
// sums of the full Forward planes f and Backward planes b of its triple.
func checkBandedPlanes(t *testing.T, name string, p *Prefix, f, b [3]*mat.Plane) {
	t.Helper()
	var opt [3]mat.Score
	for x := range f {
		opt[x] = f[x].At(f[x].Rows()-1, f[x].Cols()-1)
	}
	for x := range f {
		th := p.bound - (opt[0] + opt[1] + opt[2] - opt[x])
		nx, ny := f[x].Rows()-1, f[x].Cols()-1
		band := pairwise.NewReach(nx, ny, p.sch).Band(th)
		for u := 0; u <= nx; u++ {
			lo, hi := band.Span(u)
			for v := lo; v < hi; v++ {
				// Equal where the through value reaches th, at most
				// elsewhere.
				got, want := p.fwd.P[x].At(u, v), f[x].At(u, v)+b[x].At(u, v)
				if got > want || (want >= th && got != want) {
					t.Fatalf("%s pair %d: banded through (%d,%d) = %d, full %d, th0 = %d", name, x, u, v, got, want, th)
				}
			}
		}
	}
}
