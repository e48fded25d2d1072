package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/seq"
)

// quickTriple derives a bounded random triple from quick-generated values.
func quickTriple(seed int64, la, lb, lc uint8) seq.Triple {
	g := seq.NewGenerator(seq.DNA, seed)
	return seq.Triple{
		A: g.Random("A", int(la)%16),
		B: g.Random("B", int(lb)%16),
		C: g.Random("C", int(lc)%16),
	}
}

// TestPropertyPairwiseProjectionUpperBound: the three-way optimum never
// exceeds the sum of the three pairwise optima (the Carrillo–Lipman
// projection bound at the corner cell).
func TestPropertyPairwiseProjectionUpperBound(t *testing.T) {
	f := func(seed int64, la, lb, lc uint8) bool {
		tr := quickTriple(seed, la, lb, lc)
		opt, err := Score(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			return false
		}
		ca, cb, cc := tr.A.Codes(), tr.B.Codes(), tr.C.Codes()
		bound := pairwise.GlobalScore(ca, cb, dnaSch) +
			pairwise.GlobalScore(ca, cc, dnaSch) +
			pairwise.GlobalScore(cb, cc, dnaSch)
		return opt <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTrivialLowerBound: any valid alignment's score bounds the
// optimum from below.
func TestPropertyTrivialLowerBound(t *testing.T) {
	f := func(seed int64, la, lb, lc uint8) bool {
		tr := quickTriple(seed, la, lb, lc)
		opt, err := Score(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			return false
		}
		trivial, err := TrivialAlignment(tr, dnaSch)
		if err != nil {
			return false
		}
		return trivial.Score <= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyConcatenationSuperadditive: splitting all three sequences at
// any point and aligning the parts independently never beats aligning the
// wholes.
func TestPropertyConcatenationSuperadditive(t *testing.T) {
	f := func(seed int64, la, lb, lc, ra, rb, rc uint8) bool {
		g := seq.NewGenerator(seq.DNA, seed)
		a1, b1, c1 := g.Random("a1", int(la)%10), g.Random("b1", int(lb)%10), g.Random("c1", int(lc)%10)
		a2, b2, c2 := g.Random("a2", int(ra)%10), g.Random("b2", int(rb)%10), g.Random("c2", int(rc)%10)
		join := func(x, y *seq.Sequence) *seq.Sequence {
			return seq.MustNew(x.Name(), x.String()+y.String(), seq.DNA)
		}
		whole := seq.Triple{A: join(a1, a2), B: join(b1, b2), C: join(c1, c2)}
		left := seq.Triple{A: a1, B: b1, C: c1}
		right := seq.Triple{A: a2, B: b2, C: c2}
		sWhole, err := Score(context.Background(), whole, dnaSch, Options{})
		if err != nil {
			return false
		}
		sLeft, err := Score(context.Background(), left, dnaSch, Options{})
		if err != nil {
			return false
		}
		sRight, err := Score(context.Background(), right, dnaSch, Options{})
		if err != nil {
			return false
		}
		return sWhole >= sLeft+sRight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAppendSharedColumn: appending the same residue to all three
// sequences raises the optimum by at least one all-match column.
func TestPropertyAppendSharedColumn(t *testing.T) {
	matchCol := 3 * dnaSch.Sub(0, 0) // (A,A,A) column
	f := func(seed int64, la, lb, lc uint8) bool {
		tr := quickTriple(seed, la, lb, lc)
		base, err := Score(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			return false
		}
		ext := seq.Triple{
			A: seq.MustNew("A", tr.A.String()+"A", seq.DNA),
			B: seq.MustNew("B", tr.B.String()+"A", seq.DNA),
			C: seq.MustNew("C", tr.C.String()+"A", seq.DNA),
		}
		got, err := Score(context.Background(), ext, dnaSch, Options{})
		if err != nil {
			return false
		}
		return got >= base+matchCol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIdenticalTriplesScoreExactly: n identical residues align as
// n all-match columns.
func TestPropertyIdenticalTriplesScoreExactly(t *testing.T) {
	f := func(seed int64, l uint8) bool {
		g := seq.NewGenerator(seq.DNA, seed)
		s := g.Random("s", int(l)%24)
		tr := seq.Triple{
			A: seq.MustNew("A", s.String(), seq.DNA),
			B: seq.MustNew("B", s.String(), seq.DNA),
			C: seq.MustNew("C", s.String(), seq.DNA),
		}
		opt, err := Score(context.Background(), tr, dnaSch, Options{})
		if err != nil {
			return false
		}
		var want mat.Score
		codes := s.Codes()
		for _, c := range codes {
			want += 3 * dnaSch.Sub(c, c)
		}
		return opt == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLinearEqualsFullQuick drives the Hirschberg/full-matrix
// equivalence through quick's input generation rather than a fixed rng.
func TestPropertyLinearEqualsFullQuick(t *testing.T) {
	f := func(seed int64, la, lb, lc uint8) bool {
		tr := quickTriple(seed, la, lb, lc)
		full, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			return false
		}
		lin, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			return false
		}
		return full.Score == lin.Score && lin.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
