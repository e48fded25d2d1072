package core

import (
	"sort"

	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
)

// bandScan applies the Carrillo–Lipman admissibility test to a prefix's
// pair planes. With T_XY[u][v] = Forward[u][v] + Backward[u][v] a pair's
// through value (the best pairwise alignment score constrained through the
// cut) and L the lower bound, a lattice cell (i, j, k) can lie on a
// three-way alignment scoring ≥ L only if
//
//	T_AB[i][j] + T_AC[i][k] + T_BC[j][k] ≥ L,
//
// because each pairwise projection of a three-way alignment through
// (i, j, k) is itself a pairwise alignment through the corresponding cut,
// so its score is ≤ the through value. With a valid L ≤ optimum every cell
// of every optimal path passes (its projections score exactly the
// projected parts of an optimal alignment, which sum to ≥ L by definition
// of SP score… see DESIGN.md "Bounded search" for the full derivation).
//
// No through value exceeds its pair's optimum, so a passing cell also
// passes each pair's relaxed test, e.g. T_AB[i][j] ≥ L − optAC − optBC.
// Those bound the scan: row i of A gets a j-hull and a k-interval, column
// j of B a k-interval, and only lanes inside them meet the three-way test.
//
// Through values are read as a forward plus a suffix row, summed on the
// fly, so the planes are never added. A prefix built without suffix planes
// holds its through values in the forward planes already; its suffix then
// reads as zeros. A row is read only where its pair's reach admits a pass.
type bandScan struct {
	p                *Prefix
	bound            mat.Score
	thAB, thAC, thBC mat.Score
	ab, ac, bc       reach
	zeros            []mat.Score
	kLoB, kHiB       []int32     // per j: the BC interval, kLoB[j] < 0 until scanned
	fab, bab         []mat.Score // row i of the AB pair, set by row
	tac              []mat.Score // T_AC[i][k] over row i's AC interval
	kLoA, kHiA       int         // row i's AC interval
}

// scan starts a band scan at the tighter of lower and the trivial bound.
func (p *Prefix) scan(lower mat.Score) *bandScan {
	m, q := len(p.cb), len(p.cc)
	opt := p.fwd.Optima()
	bound := max(lower, p.trivial)
	s := &bandScan{
		p:     p,
		bound: bound,
		thAB:  bound - opt[pairwise.AC] - opt[pairwise.BC],
		thAC:  bound - opt[pairwise.AB] - opt[pairwise.BC],
		thBC:  bound - opt[pairwise.AB] - opt[pairwise.AC],
		ab:    newReach(len(p.ca), m, p.sch),
		ac:    newReach(len(p.ca), q, p.sch),
		bc:    newReach(m, q, p.sch),
		kLoB:  make([]int32, m+1),
		kHiB:  make([]int32, m+1),
		tac:   make([]mat.Score, q+1),
	}
	if p.through {
		s.zeros = make([]mat.Score, max(m, q)+1)
	}
	for j := range s.kLoB {
		s.kLoB[j] = -1
	}
	return s
}

// suffix is row i of pair x's suffix plane, width cells long: zeros once
// the forward plane already holds the through values.
func (s *bandScan) suffix(x, i, width int) []mat.Score {
	if s.p.through {
		return s.zeros[:width]
	}
	return s.p.bwd[x].Row(i)[:width]
}

// hull returns row i's j-hull [jLo, jHi): the tightest interval holding
// every j whose AB cell passes its relaxed test.
func (s *bandScan) hull(i int) (jLo, jHi int) {
	m := len(s.p.cb)
	return s.ab.scan(i, s.p.fwd[pairwise.AB].Row(i)[:m+1], s.suffix(pairwise.AB, i, m+1), s.thAB)
}

// row readies row i of A for lane.
func (s *bandScan) row(i int) {
	m, q := len(s.p.cb), len(s.p.cc)
	s.fab, s.bab = s.p.fwd[pairwise.AB].Row(i)[:m+1], s.suffix(pairwise.AB, i, m+1)
	fac, bac := s.p.fwd[pairwise.AC].Row(i)[:q+1], s.suffix(pairwise.AC, i, q+1)
	s.kLoA, s.kHiA = s.ac.scan(i, fac, bac, s.thAC)
	for k := s.kLoA; k < s.kHiA; k++ {
		s.tac[k] = fac[k] + bac[k]
	}
}

// lane returns the tightest k-interval [lo, hi) of lane (i, j), with i the
// row last readied, holding every k whose cell passes the three-way test;
// (0, 0) when none does.
func (s *bandScan) lane(j int) (lo, hi int) {
	q := len(s.p.cc)
	fbc, bbc := s.p.fwd[pairwise.BC].Row(j)[:q+1], s.suffix(pairwise.BC, j, q+1)
	if s.kLoB[j] < 0 {
		lo, hi := s.bc.scan(j, fbc, bbc, s.thBC)
		s.kLoB[j], s.kHiB[j] = int32(lo), int32(hi)
	}
	lo, hi = max(s.kLoA, int(s.kLoB[j])), min(s.kHiA, int(s.kHiB[j]))
	th := s.bound - s.fab[j] - s.bab[j]
	for lo < hi && s.tac[lo]+fbc[lo]+bbc[lo] < th {
		lo++
	}
	if lo >= hi {
		return 0, 0
	}
	for s.tac[hi-1]+fbc[hi-1]+bbc[hi-1] < th {
		hi--
	}
	return lo, hi
}

// scanSum returns the tightest [lo, hi) containing every index v with
// f[v]+b[v] ≥ th; (0, 0) when none passes.
func scanSum(f, b []mat.Score, th mat.Score) (lo, hi int) {
	hi = len(f)
	b = b[:hi]
	for lo < hi && f[lo]+b[lo] < th {
		lo++
	}
	if lo == hi {
		return 0, 0
	}
	for f[hi-1]+b[hi-1] < th {
		hi--
	}
	return lo, hi
}

// reach bounds a pair's through values by the pair's shape alone. An
// alignment of x (length nx) with y (length ny) through the cut (u, v)
// has s ≤ min(u, v) + min(nx−u, ny−v) residue pairs and nx+ny−2s gap
// columns, so with σmax the best substitution score and ge the gap score
//
//	T[u][v] ≤ (nx+ny)·ge + c·(min(u, v) + min(nx−u, ny−v)),  c = max(0, σmax − 2·ge).
//
// The bound is concave in v and peaks at v = min(u, ny), so the v it
// keeps at or above a threshold form one interval: far off the diagonal
// no cell can pass, and a row scan skips those cells unread.
type reach struct {
	nx, ny int
	base   mat.Score // (nx+ny)·ge
	c      mat.Score
}

func newReach(nx, ny int, sch *scoring.Scheme) reach {
	size := sch.Alphabet().Size()
	best := sch.Sub(0, 0)
	for a := range size {
		for _, v := range sch.SubRow(int8(a))[:size] {
			best = max(best, v)
		}
	}
	ge := sch.GapExtend()
	return reach{nx: nx, ny: ny, base: mat.Score(nx+ny) * ge, c: max(0, best-2*ge)}
}

// at is the bound on T[u][v].
func (r reach) at(u, v int) mat.Score {
	return r.base + r.c*mat.Score(min(u, v)+min(r.nx-u, r.ny-v))
}

// span returns the interval [lo, hi) of v whose bound in row u is at
// least th, found by bisection on either side of the peak; (0, 0) when
// there is none.
func (r reach) span(u int, th mat.Score) (lo, hi int) {
	peak := min(u, r.ny)
	if r.at(u, peak) < th {
		return 0, 0
	}
	// The bound rises up to the peak and falls after it.
	lo = sort.Search(peak, func(v int) bool { return r.at(u, v) >= th })
	hi = peak + 1 + sort.Search(r.ny-peak, func(d int) bool { return r.at(u, peak+1+d) < th })
	return lo, hi
}

// scan is scanSum over row u of the pair's forward and suffix rows f and
// b, reading only the span its bound admits.
func (r reach) scan(u int, f, b []mat.Score, th mat.Score) (lo, hi int) {
	sLo, sHi := r.span(u, th)
	lo, hi = scanSum(f[sLo:sHi], b[sLo:sHi], th)
	if lo == hi {
		return 0, 0
	}
	return sLo + lo, sLo + hi
}

// suffixCtx carries the three backward (suffix) pairwise planes: the
// admissible, consistent A* heuristic h(i, j, k) = B_AB[i][j] +
// B_AC[i][k] + B_BC[j][k] overestimating the best completion of a partial
// alignment at (i, j, k).
type suffixCtx struct {
	bAB, bAC, bBC *mat.Plane
}

func (sc *suffixCtx) planeBytes() int64 {
	return sc.bAB.Bytes() + sc.bAC.Bytes() + sc.bBC.Bytes()
}

// h is the pairwise-relaxation heuristic: an upper bound on the score of
// completing an alignment from (i, j, k) to the terminal corner.
func (sc *suffixCtx) h(i, j, k int) mat.Score {
	return sc.bAB.At(i, j) + sc.bAC.At(i, k) + sc.bBC.At(j, k)
}
