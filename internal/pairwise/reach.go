package pairwise

import (
	"repro/internal/mat"
	"repro/internal/scoring"
)

// Reach bounds a pair's through values by the pair's shape alone. An
// alignment of x (length nx) with y (length ny) through the cut (u, v)
// has s ≤ min(u, v) + min(nx−u, ny−v) residue pairs and nx+ny−2s gap
// columns, so with σmax the best substitution score and ge the gap score
//
//	T[u][v] ≤ (nx+ny)·ge + c·(min(u, v) + min(nx−u, ny−v)),  c = max(0, σmax − 2·ge).
//
// The cells whose bound reaches a threshold th are those admitting at
// least w residue pairs, w the threshold's pair floor, and in row u they
// form the interval [max(0, u+w−nx), min(ny, u+ny−w)]: a diagonal band,
// the shape Ukkonen's banded alignment sweeps. Its cells' bounds reach th,
// those outside it cannot, and the diagonal predecessor and successor of
// a band cell admit as many pairs as the cell itself. The bandScan of
// package core skips the cells outside it unread; Forwards and AddSuffixes
// sweep only the cells inside it.
type Reach struct {
	nx, ny int
	ge     mat.Score
	base   mat.Score // (nx+ny)·ge: every column a gap
	c      mat.Score // what a residue pair can add over its two gap columns
}

// NewReach returns the reach bound of an nx × ny pair under sch's linear
// gap score.
func NewReach(nx, ny int, sch *scoring.Scheme) Reach {
	size := sch.Alphabet().Size()
	best := sch.Sub(0, 0)
	for a := range size {
		for _, v := range sch.SubRow(int8(a))[:size] {
			best = max(best, v)
		}
	}
	ge := sch.GapExtend()
	return Reach{nx: nx, ny: ny, ge: ge, base: mat.Score(nx+ny) * ge, c: max(0, best-2*ge)}
}

// At is the bound on T[u][v].
func (r Reach) At(u, v int) mat.Score {
	return r.base + r.c*mat.Score(min(u, v)+min(r.nx-u, r.ny-v))
}

// Band is the reach band of one threshold: the cells whose bound reaches
// it, row by row.
type Band struct {
	r     Reach
	w     int
	empty bool
}

// Band returns th's band.
func (r Reach) Band(th mat.Score) Band {
	w, ok := r.pairsFor(th)
	return Band{r: r, w: w, empty: !ok}
}

// Span returns the interval [lo, hi) of v whose bound in row u reaches
// the band's threshold; (0, 0) when there is none.
func (b Band) Span(u int) (lo, hi int) {
	if b.empty {
		return 0, 0
	}
	return b.r.span(u, b.w)
}

// pairsFor returns th's pair floor: the fewest residue pairs w with
// base + c·w ≥ th, or 0 when th ≤ base, so that a cell's bound reaches th
// exactly when the cell admits at least w pairs; false when no cell's
// bound reaches th. A pair floor of 0 is the whole plane.
func (r Reach) pairsFor(th mat.Score) (int, bool) {
	if th <= r.base {
		return 0, true
	}
	if r.c == 0 {
		return 0, false
	}
	w := (int64(th) - int64(r.base) + int64(r.c) - 1) / int64(r.c)
	if w > int64(min(r.nx, r.ny)) {
		return 0, false
	}
	return int(w), true
}

// span is row u's interval [lo, hi) of the cells admitting at least w
// residue pairs, 0 ≤ w ≤ min(nx, ny); it is never empty.
func (r Reach) span(u, w int) (lo, hi int) {
	return max(0, u+w-r.nx), min(r.ny, u+r.ny-w) + 1
}

// cells counts the band's cells.
func (b Band) cells() int {
	total := 0
	for u := 0; !b.empty && u <= b.r.nx; u++ {
		lo, hi := b.Span(u)
		total += hi - lo
	}
	return total
}

// suffix bounds the suffix value B[u][v] the same way: an alignment of
// x[u:] with y[v:] has at most min(nx−u, ny−v) residue pairs.
func (r Reach) suffix(u, v int) mat.Score {
	return mat.Score(r.nx-u+r.ny-v)*r.ge + r.c*mat.Score(min(r.nx-u, r.ny-v))
}
