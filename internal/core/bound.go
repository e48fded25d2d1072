package core

import (
	"repro/internal/mat"
	"repro/internal/pairwise"
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
// fly. A prefix that keeps no suffix planes holds its through values in
// the forward planes already; its suffix then reads as zeros. A row is
// read only where its pair's reach admits a pass: inside the band the
// prefix swept its planes in, since the scan's bound never undercuts the
// prefix's. There a cell holds its exact through value wherever that
// value reaches the prefix's pair threshold, and a lower bound elsewhere
// (pairwise.Planes.Suffixes), so every test above passes on the banded
// planes exactly where it passes on full ones.
type bandScan struct {
	p                *Prefix
	bound            mat.Score
	thAB, thAC, thBC mat.Score
	ab, ac, bc       pairwise.Band // the reach bands of thAB, thAC and thBC
	zeros            []mat.Score
	kLoB, kHiB       []int32     // per j: the BC interval, kLoB[j] < 0 until scanned
	fab, bab         []mat.Score // row i of the AB pair, set by row
	tac              []mat.Score // T_AC[i][k] over row i's AC interval
	kLoA, kHiA       int         // row i's AC interval
}

// scan starts a band scan at the tighter of lower and the prefix's bound.
func (p *Prefix) scan(lower mat.Score) *bandScan {
	m, q := len(p.cb), len(p.cc)
	opt := p.fwd.Optima()
	bound := max(lower, p.bound)
	s := &bandScan{
		p:     p,
		bound: bound,
		thAB:  bound - opt[pairwise.AC] - opt[pairwise.BC],
		thAC:  bound - opt[pairwise.AB] - opt[pairwise.BC],
		thBC:  bound - opt[pairwise.AB] - opt[pairwise.AC],
		kLoB:  make([]int32, m+1),
		kHiB:  make([]int32, m+1),
		tac:   make([]mat.Score, q+1),
	}
	s.ab = pairwise.NewReach(len(p.ca), m, p.sch).Band(s.thAB)
	s.ac = pairwise.NewReach(len(p.ca), q, p.sch).Band(s.thAC)
	s.bc = pairwise.NewReach(m, q, p.sch).Band(s.thBC)
	if !p.keep {
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
	if !s.p.keep {
		return s.zeros[:width]
	}
	return s.p.bwd.P[x].Row(i)[:width]
}

// hull returns row i's j-hull [jLo, jHi): the tightest interval holding
// every j whose AB cell passes its relaxed test.
func (s *bandScan) hull(i int) (jLo, jHi int) {
	m := len(s.p.cb)
	return reachScan(s.ab, i, s.p.fwd.P[pairwise.AB].Row(i)[:m+1], s.suffix(pairwise.AB, i, m+1), s.thAB)
}

// row readies row i of A for lane.
func (s *bandScan) row(i int) {
	m, q := len(s.p.cb), len(s.p.cc)
	s.fab, s.bab = s.p.fwd.P[pairwise.AB].Row(i)[:m+1], s.suffix(pairwise.AB, i, m+1)
	fac, bac := s.p.fwd.P[pairwise.AC].Row(i)[:q+1], s.suffix(pairwise.AC, i, q+1)
	s.kLoA, s.kHiA = reachScan(s.ac, i, fac, bac, s.thAC)
	for k := s.kLoA; k < s.kHiA; k++ {
		s.tac[k] = fac[k] + bac[k]
	}
}

// lane returns the tightest k-interval [lo, hi) of lane (i, j), with i the
// row last readied, holding every k whose cell passes the three-way test;
// (0, 0) when none does.
func (s *bandScan) lane(j int) (lo, hi int) {
	q := len(s.p.cc)
	fbc, bbc := s.p.fwd.P[pairwise.BC].Row(j)[:q+1], s.suffix(pairwise.BC, j, q+1)
	if s.kLoB[j] < 0 {
		lo, hi := reachScan(s.bc, j, fbc, bbc, s.thBC)
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

// reachScan is scanSum over row u of a pair's forward and suffix rows f
// and b, reading only the row's span of the reach band of th.
func reachScan(band pairwise.Band, u int, f, b []mat.Score, th mat.Score) (lo, hi int) {
	sLo, sHi := band.Span(u)
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
