package core

import (
	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// BruteForceScore evaluates the linear-gap SP optimum by exhaustive
// recursive enumeration of every alignment, with no memoization. It is the
// independent test oracle for the dynamic programs; its cost is exponential,
// so it is only usable on very short sequences.
func BruteForceScore(tr seq.Triple, sch *scoring.Scheme) (mat.Score, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return 0, err
	}
	return bruteRec(ca, cb, cc, sch), nil
}

func bruteRec(ca, cb, cc []int8, sch *scoring.Scheme) mat.Score {
	if len(ca) == 0 && len(cb) == 0 && len(cc) == 0 {
		return 0
	}
	ge2 := 2 * sch.GapExtend()
	best := mat.NegInf
	try := func(v mat.Score) {
		if v > best {
			best = v
		}
	}
	if len(ca) > 0 && len(cb) > 0 && len(cc) > 0 {
		try(colXXX(sch, ca[0], cb[0], cc[0]) + bruteRec(ca[1:], cb[1:], cc[1:], sch))
	}
	if len(ca) > 0 && len(cb) > 0 {
		try(sch.Sub(ca[0], cb[0]) + ge2 + bruteRec(ca[1:], cb[1:], cc, sch))
	}
	if len(ca) > 0 && len(cc) > 0 {
		try(sch.Sub(ca[0], cc[0]) + ge2 + bruteRec(ca[1:], cb, cc[1:], sch))
	}
	if len(cb) > 0 && len(cc) > 0 {
		try(sch.Sub(cb[0], cc[0]) + ge2 + bruteRec(ca, cb[1:], cc[1:], sch))
	}
	if len(ca) > 0 {
		try(ge2 + bruteRec(ca[1:], cb, cc, sch))
	}
	if len(cb) > 0 {
		try(ge2 + bruteRec(ca, cb[1:], cc, sch))
	}
	if len(cc) > 0 {
		try(ge2 + bruteRec(ca, cb, cc[1:], sch))
	}
	return best
}

// BruteForceAffineScore evaluates the quasi-natural affine SP optimum by
// exhaustive enumeration over (suffixes, previous column mask); the oracle
// for the affine kernels.
func BruteForceAffineScore(tr seq.Triple, sch *scoring.Scheme) (mat.Score, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return 0, err
	}
	return bruteAffineRec(ca, cb, cc, sch, alignment.Move(7)), nil
}

func bruteAffineRec(ca, cb, cc []int8, sch *scoring.Scheme, prev alignment.Move) mat.Score {
	if len(ca) == 0 && len(cb) == 0 && len(cc) == 0 {
		return 0
	}
	best := mat.NegInf
	for s := alignment.Move(1); s <= 7; s++ {
		di, dj, dk := moveDelta(s)
		if di > len(ca) || dj > len(cb) || dk > len(cc) {
			continue
		}
		var ai, bj, ck int8
		if di == 1 {
			ai = ca[0]
		}
		if dj == 1 {
			bj = cb[0]
		}
		if dk == 1 {
			ck = cc[0]
		}
		v := colBaseAffine(sch, s, ai, bj, ck) +
			mat.Score(openCount[prev][s])*sch.GapOpen() +
			bruteAffineRec(ca[di:], cb[dj:], cc[dk:], sch, s)
		if v > best {
			best = v
		}
	}
	return best
}
