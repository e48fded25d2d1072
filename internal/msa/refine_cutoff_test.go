package msa

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alignment"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// wholeRoundRefine is RefineContext as it was before the refinement
// cut-off, verbatim: every row re-aligned in every round.
func wholeRoundRefine(ctx context.Context, aln *alignment.Alignment, sch *scoring.Scheme, maxRounds int) (*alignment.Alignment, error) {
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("msa: refine input: %w", err)
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	cur := aln.Multi()
	cur.Score = cur.SPScore(sch)
	for round := 0; round < maxRounds; round++ {
		improved := false
		for out := 0; out < 3; out++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand, err := realignOne(cur, sch, out)
			if err != nil {
				return nil, err
			}
			cand.Score = cand.SPScore(sch)
			if cand.Score > cur.Score {
				cur = cand
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur.ToAlignment()
}

// wholeRoundRefineMulti is RefineMultiContext as it was before the
// refinement cut-off, verbatim.
func wholeRoundRefineMulti(ctx context.Context, m *alignment.Multi, sch *scoring.Scheme, maxRounds int) (*alignment.Multi, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("msa: refine input: %w", err)
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	n := m.NumRows()
	cur := &alignment.Multi{Seqs: m.Seqs, Cols: append([]alignment.Mask(nil), m.Cols...)}
	cur.Score = cur.SPScoreFor(sch)
	if n < 2 {
		return cur, nil
	}
	for round := 0; round < maxRounds; round++ {
		improved := false
		for out := 0; out < n; out++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand, err := realignOne(cur, sch, out)
			if err != nil {
				return nil, err
			}
			cand.Score = cand.SPScoreFor(sch)
			if cand.Score > cur.Score {
				cur = cand
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, nil
}

// countRealigns makes realign count the profile DPs refinement runs.
func countRealigns(t *testing.T) *int {
	t.Helper()
	calls := new(int)
	realign = func(cur *alignment.Multi, sch *scoring.Scheme, out int) (*alignment.Multi, error) {
		*calls++
		return realignOne(cur, sch, out)
	}
	t.Cleanup(func() { realign = realignOne })
	return calls
}

// TestRefineCutoffMatchesWholeRounds pins Refine, RefineContext at 1, 2
// and the default number of rounds, and RefineMultiContext over N = 3…8
// rows to the whole-round loops bit for bit, over DNA and linear-gap
// BLOSUM62 (and affine BLOSUM62 for N rows) at 55–99% identity and at
// unequal lengths, and shows that the cut-off spares profile DPs.
func TestRefineCutoffMatchesWholeRounds(t *testing.T) {
	protLin, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	calls := countRealigns(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(55))
	var spared, run int
	schemes := []struct {
		name  string
		alpha *seq.Alphabet
		sch   *scoring.Scheme
	}{{"dna", seq.DNA, dnaSch}, {"blosum62-linear", seq.Protein, protLin}}
	for _, s := range schemes {
		for _, rate := range []float64{0.01, 0.05, 0.15, 0.3, 0.45} {
			for _, shape := range []string{"equal", "unequal"} {
				g := seq.NewGenerator(s.alpha, rng.Int63())
				n := 30 + rng.Intn(50)
				tr := g.RelatedTriple(n, seq.Uniform(rate))
				if shape == "unequal" {
					tr = g.TripleWithLengths(n, n/2+rng.Intn(n), n+rng.Intn(n), seq.Uniform(rate))
				}
				for _, start := range startAlignments(t, tr, s.sch) {
					for _, rounds := range []int{1, 2, 0} {
						name := fmt.Sprintf("%s/rate=%.2f/%s/%s/rounds=%d", s.name, rate, shape, start.name, rounds)
						want, err := wholeRoundRefine(ctx, start.aln, s.sch, rounds)
						if err != nil {
							t.Fatal(err)
						}
						*calls = 0
						got, err := RefineContext(ctx, start.aln, s.sch, rounds)
						if err != nil {
							t.Fatal(err)
						}
						if !sameAlignment(got, want) {
							t.Fatalf("%s: RefineContext %d %q, whole rounds %d %q", name, got.Score, movesBytes(got.Moves), want.Score, movesBytes(want.Moves))
						}
						run += *calls
						spared += wholeRoundDPs(t, start.aln, s.sch, rounds) - *calls
						if rounds == 0 {
							if plain, err := Refine(start.aln, s.sch, 0); err != nil || !sameAlignment(plain, want) {
								t.Fatalf("%s: Refine differs from the whole rounds (err %v)", name, err)
							}
						}
					}
				}
			}
		}
	}
	for n := 3; n <= 8; n++ {
		for _, s := range append(schemes, struct {
			name  string
			alpha *seq.Alphabet
			sch   *scoring.Scheme
		}{"blosum62-affine", seq.Protein, scoring.BLOSUM62()}) {
			for _, rate := range []float64{0.02, 0.15, 0.35} {
				g := seq.NewGenerator(s.alpha, rng.Int63())
				fam := g.RelatedFamily(n, 40+rng.Intn(30), seq.Uniform(rate))
				if rate > 0.3 {
					fam[rng.Intn(n)] = g.Random("short", 10+rng.Intn(20))
				}
				star, err := CenterStarN(fam, s.sch)
				if err != nil {
					t.Fatal(err)
				}
				for _, rounds := range []int{1, 2, 0} {
					want, err := wholeRoundRefineMulti(ctx, star, s.sch, rounds)
					if err != nil {
						t.Fatal(err)
					}
					*calls = 0
					got, err := RefineMultiContext(ctx, star, s.sch, rounds)
					if err != nil {
						t.Fatal(err)
					}
					if got.Score != want.Score || !slices.Equal(got.Cols, want.Cols) {
						t.Fatalf("%s/n=%d/rate=%.2f/rounds=%d: RefineMultiContext %d, whole rounds %d", s.name, n, rate, rounds, got.Score, want.Score)
					}
					run += *calls
				}
			}
		}
	}
	t.Logf("the cut-off ran %d profile DPs on the triples and N-row profiles and spared %d on the triples", run, spared)
	if spared <= 0 {
		t.Fatalf("the cut-off spared no profile DP (%d run)", run)
	}
}

type startAlignment struct {
	name string
	aln  *alignment.Alignment
}

// startAlignments returns the triple's center-star and progressive
// alignments, the two seeds refinement starts from.
func startAlignments(t *testing.T, tr seq.Triple, sch *scoring.Scheme) []startAlignment {
	t.Helper()
	star, err := CenterStar(tr, sch)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Progressive(tr, sch)
	if err != nil {
		t.Fatal(err)
	}
	return []startAlignment{{"center-star", star}, {"progressive", prog}}
}

// wholeRoundDPs counts the profile DPs the whole-round loop runs.
func wholeRoundDPs(t *testing.T, aln *alignment.Alignment, sch *scoring.Scheme, rounds int) int {
	t.Helper()
	if rounds <= 0 {
		rounds = 10
	}
	cur := aln.Multi()
	cur.Score = cur.SPScore(sch)
	dps := 0
	for round := 0; round < rounds; round++ {
		improved := false
		for out := 0; out < 3; out++ {
			dps++
			cand, err := realignOne(cur, sch, out)
			if err != nil {
				t.Fatal(err)
			}
			if cand.Score = cand.SPScore(sch); cand.Score > cur.Score {
				cur, improved = cand, true
			}
		}
		if !improved {
			break
		}
	}
	return dps
}

// TestRefineBelowCancelled: refinement under a cancelled context stops
// before its first profile DP and returns context.Canceled, unless the
// seed already scores the upper bound and nothing is refined.
func TestRefineBelowCancelled(t *testing.T) {
	calls := countRealigns(t)
	tr := seq.NewGenerator(seq.DNA, 91).RelatedTriple(60, seq.Uniform(0.2))
	codes := refCodes(tr)
	fwd := pairwise.Forwards(codes[0], codes[1], codes[2], dnaSch, 1)
	defer fwd.Release()
	star, upper, err := CenterStarOn(tr, dnaSch, fwd)
	if err != nil {
		t.Fatal(err)
	}
	if star.Score == upper {
		t.Fatal("the seed already scores the upper bound; pick a less similar triple")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RefineBelow(ctx, star, upper, dnaSch); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if *calls != 0 {
		t.Fatalf("a cancelled refinement ran %d profile DPs", *calls)
	}
	// At the upper bound there is nothing to refine, cancelled or not.
	if got, err := RefineBelow(ctx, star, star.Score, dnaSch); err != nil || got != star {
		t.Fatalf("at the bound: %v, %v", got, err)
	}
	if _, err := RefineBelow(context.Background(), star, upper, dnaSch); err != nil {
		t.Fatal(err)
	}
}

// TestRefineBelowStopsAtUpperBound: once refinement reaches the pairwise
// upper bound U it stops, and returns what the whole-round loop returns;
// on triples whose refinement reaches U that spares profile DPs.
func TestRefineBelowStopsAtUpperBound(t *testing.T) {
	calls := countRealigns(t)
	reached, spared := 0, 0
	for s := int64(0); s < 40; s++ {
		tr := seq.NewGenerator(seq.DNA, 9100+s).RelatedTriple(80+int(s), seq.Uniform([]float64{0.01, 0.03, 0.05}[s%3]))
		codes := refCodes(tr)
		fwd := pairwise.Forwards(codes[0], codes[1], codes[2], dnaSch, 1)
		star, upper, err := CenterStarOn(tr, dnaSch, fwd)
		fwd.Release()
		if err != nil {
			t.Fatal(err)
		}
		want, err := wholeRoundRefine(context.Background(), star, dnaSch, 0)
		if err != nil {
			t.Fatal(err)
		}
		*calls = 0
		got, err := RefineBelow(context.Background(), star, upper, dnaSch)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAlignment(got, want) {
			t.Fatalf("seed %d: RefineBelow %d %q, whole rounds %d %q", s, got.Score, movesBytes(got.Moves), want.Score, movesBytes(want.Moves))
		}
		if star.Score < upper && got.Score == upper {
			reached++
			below := *calls
			*calls = 0
			if _, err := RefineContext(context.Background(), star, dnaSch, 0); err != nil {
				t.Fatal(err)
			}
			spared += *calls - below
		}
	}
	t.Logf("refinement reached the upper bound on %d triples, sparing %d profile DPs", reached, spared)
	if reached == 0 || spared <= 0 {
		t.Fatalf("no triple exercised the stop at the upper bound (%d reached it, %d DPs spared)", reached, spared)
	}
}
