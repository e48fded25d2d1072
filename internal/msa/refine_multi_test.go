package msa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// refRealignOneMulti is the N-row re-alignment as it was before every
// refinement shared alignToProfile: per-column code slices and Scheme.Pair
// closures in the inner loop. It is the oracle the N-row path must match
// bit for bit.
func refRealignOneMulti(cur *alignment.Multi, sch *scoring.Scheme, out int) (*alignment.Multi, error) {
	n := cur.NumRows()
	outBit := alignment.Mask(1) << uint(out)
	allCodes := cur.ColumnCodes()
	type profCol struct {
		mask  alignment.Mask // remaining-row consumption bits
		codes []int8         // all-row codes; position out ignored
	}
	var prof []profCol
	for ci, c := range cur.Cols {
		rest := c &^ outBit
		if rest == 0 {
			continue
		}
		prof = append(prof, profCol{mask: rest, codes: allCodes[ci]})
	}

	r := cur.Seqs[out].Codes()
	nr, mc := len(r), len(prof)
	f := mat.NewPlane(nr+1, mc+1)
	matchCost := func(ri int8, c profCol) mat.Score {
		var s mat.Score
		for i, code := range c.codes {
			if i != out {
				s += sch.Pair(ri, code)
			}
		}
		return s
	}
	gapRCost := func(c profCol) mat.Score {
		var s mat.Score
		for i, code := range c.codes {
			if i != out {
				s += sch.Pair(scoring.Gap, code)
			}
		}
		return s
	}
	gapColCost := mat.Score(n-1) * sch.GapExtend()
	for j := 1; j <= mc; j++ {
		f.Set(0, j, f.At(0, j-1)+gapRCost(prof[j-1]))
	}
	for i := 1; i <= nr; i++ {
		f.Set(i, 0, f.At(i-1, 0)+gapColCost)
		for j := 1; j <= mc; j++ {
			best := f.At(i-1, j-1) + matchCost(r[i-1], prof[j-1])
			if v := f.At(i-1, j) + gapColCost; v > best {
				best = v
			}
			if v := f.At(i, j-1) + gapRCost(prof[j-1]); v > best {
				best = v
			}
			f.Set(i, j, best)
		}
	}

	var rev []alignment.Mask
	i, j := nr, mc
	for i > 0 || j > 0 {
		v := f.At(i, j)
		switch {
		case i > 0 && j > 0 && v == f.At(i-1, j-1)+matchCost(r[i-1], prof[j-1]):
			rev = append(rev, prof[j-1].mask|outBit)
			i, j = i-1, j-1
		case i > 0 && v == f.At(i-1, j)+gapColCost:
			rev = append(rev, outBit)
			i--
		case j > 0 && v == f.At(i, j-1)+gapRCost(prof[j-1]):
			rev = append(rev, prof[j-1].mask)
			j--
		default:
			return nil, fmt.Errorf("msa: multi refine traceback stuck at (%d,%d)", i, j)
		}
	}
	cols := make([]alignment.Mask, len(rev))
	for k := range rev {
		cols[k] = rev[len(rev)-1-k]
	}
	res := &alignment.Multi{Seqs: cur.Seqs, Cols: cols}
	if err := res.Validate(); err != nil {
		return nil, fmt.Errorf("msa: multi refine produced inconsistent profile: %w", err)
	}
	return res, nil
}

// refRefineMulti is RefineMultiContext's default-round loop over
// refRealignOneMulti.
func refRefineMulti(t *testing.T, m *alignment.Multi, sch *scoring.Scheme) *alignment.Multi {
	t.Helper()
	cur := &alignment.Multi{Seqs: m.Seqs, Cols: m.Cols, Score: m.SPScoreFor(sch)}
	for round := 0; round < 10; round++ {
		improved := false
		for out := 0; out < cur.NumRows(); out++ {
			cand, err := refRealignOneMulti(cur, sch, out)
			if err != nil {
				t.Fatal(err)
			}
			if cand.Score = cand.SPScoreFor(sch); cand.Score > cur.Score {
				cur, improved = cand, true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// TestRefineMultiMatchesReference pins the N-row re-alignment and
// RefineMultiContext to the per-column Scheme.Pair oracle bit for bit, for
// every held-out row of two starting profiles (center-star and a chain of
// pairwise merges), over N = 3…8 rows of DNA, linear-gap BLOSUM62 and
// affine BLOSUM62 (the msa-protein-family shape: 8 × ~64 residues at 30%
// substitution), with related, unequal-length and empty rows.
func TestRefineMultiMatchesReference(t *testing.T) {
	protLin, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2027))
	improved, cases := 0, 0
	for _, s := range []struct {
		name  string
		alpha *seq.Alphabet
		sch   *scoring.Scheme
		rate  float64
	}{
		{"dna", seq.DNA, dnaSch, 0.15},
		{"protein-linear", seq.Protein, protLin, 0.3},
		{"protein-affine", seq.Protein, scoring.BLOSUM62(), 0.3},
	} {
		for n := 3; n <= 8; n++ {
			for _, shape := range []string{"family", "unequal", "empty"} {
				name := fmt.Sprintf("%s/n=%d/%s", s.name, n, shape)
				g := seq.NewGenerator(s.alpha, rng.Int63())
				var fam []*seq.Sequence
				switch shape {
				case "unequal":
					for i := 0; i < n; i++ {
						fam = append(fam, g.Random(fmt.Sprintf("u%d", i), 5+rng.Intn(60)))
					}
				default:
					fam = g.RelatedFamily(n, 60+rng.Intn(9), seq.Uniform(s.rate))
				}
				if shape == "empty" {
					fam[rng.Intn(n)] = seq.MustNew("empty", "", s.alpha)
				}
				improved += checkRefineMulti(t, name, fam, s.sch)
				cases += 2
			}
		}
	}
	t.Logf("refinement improved %d of %d starting profiles", improved, cases)
	if improved == 0 {
		t.Fatal("no starting profile improved; the round loop went untested")
	}
}

// checkRefineMulti compares both starting profiles of fam against the
// oracle and returns how many of them refinement improved.
func checkRefineMulti(t *testing.T, name string, fam []*seq.Sequence, sch *scoring.Scheme) int {
	t.Helper()
	improved := 0
	star, err := CenterStarN(fam, sch)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	chain := alignment.NewLeaf(fam[0])
	for _, s := range fam[1:] {
		if chain, err = MergePair(chain, alignment.NewLeaf(s), sch); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for si, start := range []*alignment.Multi{star, chain} {
		for out := range fam {
			got, err := realignOne(start, sch, out)
			if err != nil {
				t.Fatalf("%s start=%d out=%d: %v", name, si, out, err)
			}
			want, err := refRealignOneMulti(start, sch, out)
			if err != nil {
				t.Fatalf("%s start=%d out=%d: reference: %v", name, si, out, err)
			}
			if !slices.Equal(got.Cols, want.Cols) {
				t.Fatalf("%s start=%d out=%d: realignOne %v, reference %v", name, si, out, got.Cols, want.Cols)
			}
		}
		got, err := RefineMultiContext(context.Background(), start, sch, 0)
		if err != nil {
			t.Fatalf("%s start=%d: %v", name, si, err)
		}
		want := refRefineMulti(t, start, sch)
		if got.Score != want.Score || !slices.Equal(got.Cols, want.Cols) {
			t.Fatalf("%s start=%d: RefineMultiContext %d %v, reference %d %v", name, si, got.Score, got.Cols, want.Score, want.Cols)
		}
		if got.Score > start.SPScoreFor(sch) {
			improved++
		}
	}
	return improved
}
