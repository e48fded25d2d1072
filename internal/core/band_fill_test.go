package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// refFillBand is the band fill as it ran before the profile-fed lanes:
// three dense n×m pair-score tables and a per-cell NegInf clamp on every
// predecessor read, lane by lane in row-major order. It is the oracle the
// new fill must match cell for cell.
func refFillBand(band *mat.BandTensor3, ca, cb, cc []int8, sch *scoring.Scheme) {
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	ge2 := 2 * sch.GapExtend()
	ni, _, _ := band.Dims()
	for i := 0; i < ni; i++ {
		for j := 0; j <= len(cb); j++ {
			refFillLaneBand(band, st, ge2, i, j)
		}
	}
}

// refBandLaneOf is BandTensor3.Lane tolerating negative indices.
func refBandLaneOf(b *mat.BandTensor3, i, j int) ([]mat.Score, int, bool) {
	if i < 0 || j < 0 {
		return nil, 0, false
	}
	return b.Lane(i, j)
}

// refFillLaneBand is the former fillLaneBand, verbatim but for names.
func refFillLaneBand(b *mat.BandTensor3, st *scoreTables, ge2 mat.Score, i, j int) {
	cur, lo, ok := b.Lane(i, j)
	if !ok {
		return
	}
	hi := lo + len(cur)
	l11, o11, ok11 := refBandLaneOf(b, i-1, j-1)
	l10, o10, ok10 := refBandLaneOf(b, i-1, j)
	l01, o01, ok01 := refBandLaneOf(b, i, j-1)
	var sAB mat.Score
	var acRow, bcRow []mat.Score
	if i > 0 {
		acRow = st.ac.Row(i)
	}
	if j > 0 {
		bcRow = st.bc.Row(j)
	}
	if i > 0 && j > 0 {
		sAB = st.ab.Row(i)[j]
	}
	prevCur := mat.NegInf // cur[k-1]; NegInf below the stored interval
	for k := lo; k < hi; k++ {
		best := mat.NegInf
		if k > 0 {
			if i > 0 && j > 0 {
				if v := bandVal(l11, o11, ok11, k-1) + sAB + acRow[k] + bcRow[k]; v > best {
					best = v // XXX
				}
			}
			if i > 0 {
				if v := bandVal(l10, o10, ok10, k-1) + acRow[k] + ge2; v > best {
					best = v // XGX
				}
			}
			if j > 0 {
				if v := bandVal(l01, o01, ok01, k-1) + bcRow[k] + ge2; v > best {
					best = v // GXX
				}
			}
			if v := prevCur + ge2; v > best {
				best = v // GGX
			}
		}
		if i > 0 && j > 0 {
			if v := bandVal(l11, o11, ok11, k) + sAB + ge2; v > best {
				best = v // XXG
			}
		}
		if i > 0 {
			if v := bandVal(l10, o10, ok10, k) + ge2; v > best {
				best = v // XGG
			}
		}
		if j > 0 {
			if v := bandVal(l01, o01, ok01, k) + ge2; v > best {
				best = v // GXG
			}
		}
		if i == 0 && j == 0 && k == 0 {
			best = 0
		}
		cur[k-lo] = best
		prevCur = best
	}
}

// TestBandFillMatchesReference plans bands over DNA and linear-gap
// BLOSUM62 triples, fills each with Band.fill and with refFillBand, and
// requires every stored cell to be equal. The cases cover bands on the
// i = 0, j = 0 and k = 0 faces (empty sequences, and every band's origin
// corner), lanes of width 1 (tight bounds on near-identical triples),
// workers 1 and 2, and bands above and below serialBandCells.
func TestBandFillMatchesReference(t *testing.T) {
	prot, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name  string
		tr    seq.Triple
		sch   *scoring.Scheme
		tight bool
	}
	rng := rand.New(rand.NewSource(2719))
	var cases []tc
	for _, rate := range []float64{0.01, 0.05, 0.16, 0.3} {
		for _, tight := range []bool{false, true} {
			n := 20 + rng.Intn(60)
			cases = append(cases,
				tc{fmt.Sprintf("dna n=%d rate=%.2f", n, rate), relatedTriple(rng.Int63(), n, rate), dnaSch, tight},
				tc{fmt.Sprintf("protein n=%d rate=%.2f", n, rate), seq.NewGenerator(seq.Protein, rng.Int63()).RelatedTriple(n, seq.Uniform(rate)), prot, tight})
		}
	}
	cases = append(cases,
		tc{"dna unequal", seq.NewGenerator(seq.DNA, 5).TripleWithLengths(70, 40, 55, seq.Uniform(0.1)), dnaSch, true},
		tc{"dna a empty", dnaTriple(t, "", "ACGTTGCA", "ACGTGCA"), dnaSch, false},
		tc{"dna b empty", dnaTriple(t, "ACGTTGCA", "", "ACTTGCA"), dnaSch, false},
		tc{"dna c empty", dnaTriple(t, "ACGTTGCA", "AGTTGCA", ""), dnaSch, false},
		tc{"dna ragged", dnaTriple(t, "ACGTACGTACGT", "AC", "GTTTTT"), dnaSch, false},
		// Random triples at the trivial bound: bands past serialBandCells.
		tc{"dna random large", randomTriple(rng, 120, 115, 125), dnaSch, false},
		tc{"protein random large", seq.Triple{
			A: seq.NewGenerator(seq.Protein, 3).Random("A", 120),
			B: seq.NewGenerator(seq.Protein, 4).Random("B", 125),
			C: seq.NewGenerator(seq.Protein, 6).Random("C", 115),
		}, prot, false},
	)
	var width1, faceI, faceJ, large, small int
	for _, c := range cases {
		lower := mat.NegInf
		if c.tight {
			ref, err := AlignParallel(context.Background(), c.tr, c.sch, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			lower = ref.Score
		}
		for _, workers := range []int{1, 2} {
			pre, err := NewPrefix(c.tr, c.sch, pairwise.Planes{}, lower, workers)
			if err != nil {
				t.Fatal(err)
			}
			plan := pre.Plan(lower)
			got, _, err := plan.fill(context.Background(), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			n, m, q := c.tr.A.Len(), c.tr.B.Len(), c.tr.C.Len()
			want := mat.NewBandTensor3(n+1, m+1, q+1, plan.jLo, plan.jHi, plan.kLo, plan.kHi)
			refFillBand(want, pre.ca, pre.cb, pre.cc, c.sch)
			for i := 0; i <= n; i++ {
				for j := int(plan.jLo[i]); j < int(plan.jHi[i]); j++ {
					g, lo, ok := got.Lane(i, j)
					w, _, _ := want.Lane(i, j)
					for k := range g {
						if g[k] != w[k] {
							t.Fatalf("%s workers=%d: cell (%d,%d,%d) = %d, reference %d", c.name, workers, i, j, lo+k, g[k], w[k])
						}
					}
					if ok && len(g) == 1 {
						width1++
					}
					if ok && i == 0 && j > 0 {
						faceI++
					}
					if ok && j == 0 && i > 0 {
						faceJ++
					}
				}
			}
			if got.Cells() >= serialBandCells {
				large++
			} else {
				small++
			}
			got.Release()
			want.Release()
			pre.Release()
		}
	}
	if width1 == 0 || faceI == 0 || faceJ == 0 || large == 0 || small == 0 {
		t.Fatalf("cases miss a shape: %d width-1 lanes, %d lanes on i = 0, %d on j = 0, %d bands at or above %d cells, %d below",
			width1, faceI, faceJ, large, serialBandCells, small)
	}
}
