package msa

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// The ref* functions are the heuristics as they were before the shared
// forward planes and the dense-table profile DP: every pairwise alignment
// from its own pairwise.Global or GlobalScore fill, a three-row star merge,
// and a two-row profile DP that calls Scheme.Pair in its inner loop. They
// are the oracles the rewritten paths must match bit for bit.

func refPickCenter(codes [3][]int8, sch *scoring.Scheme) (int, [3]mat.Score) {
	var pairScore [3]mat.Score
	pairScore[0] = pairwise.GlobalScore(codes[1], codes[2], sch)
	pairScore[1] = pairwise.GlobalScore(codes[0], codes[2], sch)
	pairScore[2] = pairwise.GlobalScore(codes[0], codes[1], sch)
	best, bestSum := 0, pairScore[1]+pairScore[2]
	if s := pairScore[0] + pairScore[2]; s > bestSum {
		best, bestSum = 1, s
	}
	if s := pairScore[0] + pairScore[1]; s > bestSum {
		best = 2
	}
	return best, pairScore
}

// refCodes returns the residue codes of the triple's three sequences.
func refCodes(tr seq.Triple) [3][]int8 {
	return [3][]int8{tr.A.Codes(), tr.B.Codes(), tr.C.Codes()}
}

func refCenterStar(tr seq.Triple, sch *scoring.Scheme) *alignment.Alignment {
	codes := refCodes(tr)
	center, _ := refPickCenter(codes, sch)
	sat1, sat2 := (center+1)%3, (center+2)%3
	aln1 := pairwise.Global(codes[center], codes[sat1], sch)
	aln2 := pairwise.Global(codes[center], codes[sat2], sch)
	aln := &alignment.Alignment{Triple: tr, Moves: refMergeStar(aln1.Ops, aln2.Ops, center, sat1, sat2)}
	aln.Score = aln.SPScore(sch)
	return aln
}

// refMergeStar merges two center-vs-satellite pairwise alignments into a
// three-way move list. Both op lists traverse the center sequence; columns
// where a satellite inserts relative to the center (OpB) become columns
// gapped in the center and the other satellite.
func refMergeStar(ops1, ops2 []pairwise.Op, center, sat1, sat2 int) []alignment.Move {
	bit := func(idx int) alignment.Move {
		switch idx {
		case 0:
			return alignment.ConsumeA
		case 1:
			return alignment.ConsumeB
		default:
			return alignment.ConsumeC
		}
	}
	cBit, s1Bit, s2Bit := bit(center), bit(sat1), bit(sat2)
	var moves []alignment.Move
	i, j := 0, 0
	for i < len(ops1) || j < len(ops2) {
		switch {
		case i < len(ops1) && ops1[i] == pairwise.OpB:
			moves = append(moves, s1Bit)
			i++
		case j < len(ops2) && ops2[j] == pairwise.OpB:
			moves = append(moves, s2Bit)
			j++
		default:
			// Both alignments consume the center here.
			m := cBit
			if ops1[i] == pairwise.OpBoth {
				m |= s1Bit
			}
			if ops2[j] == pairwise.OpBoth {
				m |= s2Bit
			}
			moves = append(moves, m)
			i++
			j++
		}
	}
	return moves
}

// profCol is one column of a two-row profile: the residue codes of its
// rows p and q, scoring.Gap where a row is gapped. No column gaps both.
type profCol struct{ x, y int8 }

// refProfileDP aligns r (row out) against the profile of rows p and q
// with Scheme.Pair closures, as realignOne and Progressive once did.
func refProfileDP(r []int8, prof []profCol, sch *scoring.Scheme, out, p, q int) []alignment.Move {
	bit := [3]alignment.Move{alignment.ConsumeA, alignment.ConsumeB, alignment.ConsumeC}
	n, m := len(r), len(prof)
	f := mat.NewPlane(n+1, m+1)
	matchCost := func(ri int8, c profCol) mat.Score { return sch.Pair(ri, c.x) + sch.Pair(ri, c.y) }
	gapRCost := func(c profCol) mat.Score { return sch.Pair(scoring.Gap, c.x) + sch.Pair(scoring.Gap, c.y) }
	gapColCost := 2 * sch.GapExtend()
	for j := 1; j <= m; j++ {
		f.Set(0, j, f.At(0, j-1)+gapRCost(prof[j-1]))
	}
	for i := 1; i <= n; i++ {
		f.Set(i, 0, f.At(i-1, 0)+gapColCost)
		for j := 1; j <= m; j++ {
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
	colMove := func(c profCol) alignment.Move {
		var mv alignment.Move
		if c.x != scoring.Gap {
			mv |= bit[p]
		}
		if c.y != scoring.Gap {
			mv |= bit[q]
		}
		return mv
	}
	var rev []alignment.Move
	i, j := n, m
	for i > 0 || j > 0 {
		v := f.At(i, j)
		switch {
		case i > 0 && j > 0 && v == f.At(i-1, j-1)+matchCost(r[i-1], prof[j-1]):
			rev = append(rev, colMove(prof[j-1])|bit[out])
			i, j = i-1, j-1
		case i > 0 && v == f.At(i-1, j)+gapColCost:
			rev = append(rev, bit[out])
			i--
		case j > 0 && v == f.At(i, j-1)+gapRCost(prof[j-1]):
			rev = append(rev, colMove(prof[j-1]))
			j--
		default:
			panic(fmt.Sprintf("reference profile traceback stuck at (%d,%d)", i, j))
		}
	}
	moves := make([]alignment.Move, len(rev))
	for k := range rev {
		moves[k] = rev[len(rev)-1-k]
	}
	return moves
}

func refRealignOne(cur *alignment.Alignment, sch *scoring.Scheme, out int) *alignment.Alignment {
	codes := refCodes(cur.Triple)
	bit := [3]alignment.Move{alignment.ConsumeA, alignment.ConsumeB, alignment.ConsumeC}
	p, q := (out+1)%3, (out+2)%3
	if p > q {
		p, q = q, p
	}
	var prof []profCol
	idx := [3]int{}
	for _, m := range cur.Moves {
		col := profCol{scoring.Gap, scoring.Gap}
		if m&bit[p] != 0 {
			col.x = codes[p][idx[p]]
		}
		if m&bit[q] != 0 {
			col.y = codes[q][idx[q]]
		}
		for s := 0; s < 3; s++ {
			if m&bit[s] != 0 {
				idx[s]++
			}
		}
		if col.x != scoring.Gap || col.y != scoring.Gap {
			prof = append(prof, col)
		}
	}
	aln := &alignment.Alignment{Triple: cur.Triple, Moves: refProfileDP(codes[out], prof, sch, out, p, q)}
	aln.Score = aln.SPScore(sch)
	return aln
}

// refRefine is Refine's default-round loop over refRealignOne.
func refRefine(aln *alignment.Alignment, sch *scoring.Scheme) *alignment.Alignment {
	cur := aln
	for round := 0; round < 10; round++ {
		improved := false
		for out := 0; out < 3; out++ {
			if cand := refRealignOne(cur, sch, out); cand.Score > cur.Score {
				cur, improved = cand, true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

func refProgressive(tr seq.Triple, sch *scoring.Scheme) *alignment.Alignment {
	codes := refCodes(tr)
	_, pairScore := refPickCenter(codes, sch)
	outsider := 0
	for i := 1; i < 3; i++ {
		if pairScore[i] > pairScore[outsider] {
			outsider = i
		}
	}
	p, q := (outsider+1)%3, (outsider+2)%3
	if p > q {
		p, q = q, p
	}
	pairAln := pairwise.Global(codes[p], codes[q], sch)
	var prof []profCol
	pi, qi := 0, 0
	for _, op := range pairAln.Ops {
		col := profCol{scoring.Gap, scoring.Gap}
		if op != pairwise.OpB {
			col.x = codes[p][pi]
			pi++
		}
		if op != pairwise.OpA {
			col.y = codes[q][qi]
			qi++
		}
		prof = append(prof, col)
	}
	aln := &alignment.Alignment{Triple: tr, Moves: refProfileDP(codes[outsider], prof, sch, outsider, p, q)}
	aln.Score = aln.SPScore(sch)
	return aln
}

// seedCase is one triple of the differential suites below.
type seedCase struct {
	name string
	sch  *scoring.Scheme
	tr   seq.Triple
}

// seedCases spans DNA and a linear-gap protein scheme; near-identical,
// related and unrelated triples; unequal lengths; and empty sequences.
func seedCases(t *testing.T) []seedCase {
	t.Helper()
	protLin, err := scoring.BLOSUM62().WithGaps(0, -4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2026))
	var out []seedCase
	for _, s := range []struct {
		name  string
		alpha *seq.Alphabet
		sch   *scoring.Scheme
	}{{"dna", seq.DNA, dnaSch}, {"protein-linear", seq.Protein, protLin}} {
		for trial := 0; trial < 40; trial++ {
			g := seq.NewGenerator(s.alpha, rng.Int63())
			rate := []float64{0.01, 0.02, 0.1, 0.3, 0.6}[trial%5]
			var tr seq.Triple
			switch trial % 4 {
			case 0, 1:
				tr = g.RelatedTriple(20+rng.Intn(60), seq.Uniform(rate))
			case 2:
				tr = g.TripleWithLengths(5+rng.Intn(50), 5+rng.Intn(50), 5+rng.Intn(50), seq.Uniform(rate))
			default:
				lens := [3]int{rng.Intn(30), rng.Intn(30), rng.Intn(30)}
				lens[trial/4%3] = 0
				tr = g.TripleWithLengths(lens[0], lens[1], lens[2], seq.Uniform(rate))
			}
			out = append(out, seedCase{fmt.Sprintf("%s/%d", s.name, trial), s.sch, tr})
		}
	}
	return out
}

func sameAlignment(a, b *alignment.Alignment) bool {
	return a.Score == b.Score && movesBytes(a.Moves) == movesBytes(b.Moves)
}

// TestSeedMatchesCenterStarRefined pins the bounded path's seed — center-
// star traced back on the shared forward planes, refined unless it scores
// the pairwise upper bound — to CenterStarRefined and to the reference
// composition Refine(CenterStar) bit for bit, in moves and score, on both
// sides of the upper-bound shortcut.
func TestSeedMatchesCenterStarRefined(t *testing.T) {
	atBound, belowBound := 0, 0
	for _, c := range seedCases(t) {
		codes := refCodes(c.tr)
		fwd := pairwise.Forwards(codes[0], codes[1], codes[2], c.sch, 1)
		star, upper, err := CenterStarOn(c.tr, c.sch, fwd)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		seed, err := RefineBelow(context.Background(), star, upper, c.sch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		opt := fwd.Optima()
		fwd.Release()
		cs := refCenterStar(c.tr, c.sch)
		if cs.Score == opt[0]+opt[1]+opt[2] {
			atBound++
		} else {
			belowBound++
		}
		want := refRefine(cs, c.sch)
		if !sameAlignment(seed, want) {
			t.Fatalf("%s: seed %d %q, reference %d %q", c.name, seed.Score, movesBytes(seed.Moves), want.Score, movesBytes(want.Moves))
		}
		got, err := CenterStarRefined(c.tr, c.sch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameAlignment(got, want) {
			t.Fatalf("%s: CenterStarRefined %d, reference %d", c.name, got.Score, want.Score)
		}
		if got.SPScore(c.sch) != got.Score {
			t.Fatalf("%s: reported score %d, rescored %d", c.name, got.Score, got.SPScore(c.sch))
		}
	}
	t.Logf("center-star at the upper bound on %d cases, below it on %d", atBound, belowBound)
	if atBound == 0 || belowBound == 0 {
		t.Fatalf("cases cover one side of the upper-bound shortcut only: %d at U, %d below", atBound, belowBound)
	}
}

// TestHeuristicsMatchReference pins CenterStar and Progressive, which now
// trace back on shared forward planes and run the dense-table profile DP,
// to their reference forms.
func TestHeuristicsMatchReference(t *testing.T) {
	for _, c := range seedCases(t) {
		cs, err := CenterStar(c.tr, c.sch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := refCenterStar(c.tr, c.sch); !sameAlignment(cs, want) {
			t.Fatalf("%s: CenterStar %d, reference %d", c.name, cs.Score, want.Score)
		}
		pr, err := Progressive(c.tr, c.sch)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := refProgressive(c.tr, c.sch); !sameAlignment(pr, want) {
			t.Fatalf("%s: Progressive %d %q, reference %d %q", c.name, pr.Score, movesBytes(pr.Moves), want.Score, movesBytes(want.Moves))
		}
	}
}

// TestRealignOneMatchesReference checks the dense-table realignOne on
// triples against the two-row Scheme.Pair reference on every held-out row
// of center-star and progressive starting alignments.
func TestRealignOneMatchesReference(t *testing.T) {
	for _, c := range seedCases(t) {
		for _, start := range []*alignment.Alignment{refCenterStar(c.tr, c.sch), refProgressive(c.tr, c.sch)} {
			m := start.Multi()
			for out := 0; out < 3; out++ {
				res, err := realignOne(m, c.sch, out)
				if err != nil {
					t.Fatalf("%s out=%d: %v", c.name, out, err)
				}
				got, err := res.ToAlignment()
				if err != nil {
					t.Fatal(err)
				}
				got.Score = got.SPScore(c.sch)
				if want := refRealignOne(start, c.sch, out); !sameAlignment(got, want) {
					t.Fatalf("%s out=%d: realignOne %d %q, reference %d %q", c.name, out,
						got.Score, movesBytes(got.Moves), want.Score, movesBytes(want.Moves))
				}
			}
		}
	}
}
