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
// A row is read only where its pair's reach admits a pass: inside the
// band the prefix swept its through planes in, since the scan's bound
// never undercuts the prefix's. There a cell holds its exact through value
// wherever that value reaches the prefix's pair threshold, and a lower
// bound elsewhere (pairwise.Planes.AddSuffixes), so every test above
// passes on the banded planes exactly where it passes on full ones.
type bandScan struct {
	p                *Prefix
	bound            mat.Score
	thAB, thAC, thBC mat.Score
	ab, ac, bc       pairwise.Band // the reach bands of thAB, thAC and thBC
	kLoB, kHiB       []int32       // per j: the BC interval, kLoB[j] < 0 until scanned
	tab, tac         []mat.Score   // row i of the AB and AC through planes, set by row
	kLoA, kHiA       int           // row i's AC interval
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
	}
	s.ab = pairwise.NewReach(len(p.ca), m, p.sch).Band(s.thAB)
	s.ac = pairwise.NewReach(len(p.ca), q, p.sch).Band(s.thAC)
	s.bc = pairwise.NewReach(m, q, p.sch).Band(s.thBC)
	for j := range s.kLoB {
		s.kLoB[j] = -1
	}
	return s
}

// through is row u of pair x's through plane.
func (s *bandScan) through(x, u int) []mat.Score { return s.p.fwd.P[x].Row(u) }

// hull returns row i's j-hull [jLo, jHi): the tightest interval holding
// every j whose AB cell passes its relaxed test.
func (s *bandScan) hull(i int) (jLo, jHi int) {
	return reachScan(s.ab, i, s.through(pairwise.AB, i), s.thAB)
}

// row readies row i of A for lane.
func (s *bandScan) row(i int) {
	s.tab, s.tac = s.through(pairwise.AB, i), s.through(pairwise.AC, i)
	s.kLoA, s.kHiA = reachScan(s.ac, i, s.tac, s.thAC)
}

// lane returns the tightest k-interval [lo, hi) of lane (i, j), with i the
// row last readied, holding every k whose cell passes the three-way test;
// (0, 0) when none does.
func (s *bandScan) lane(j int) (lo, hi int) {
	tbc := s.through(pairwise.BC, j)
	if s.kLoB[j] < 0 {
		lo, hi := reachScan(s.bc, j, tbc, s.thBC)
		s.kLoB[j], s.kHiB[j] = int32(lo), int32(hi)
	}
	lo, hi = max(s.kLoA, int(s.kLoB[j])), min(s.kHiA, int(s.kHiB[j]))
	th := s.bound - s.tab[j]
	for lo < hi && s.tac[lo]+tbc[lo] < th {
		lo++
	}
	if lo >= hi {
		return 0, 0
	}
	for s.tac[hi-1]+tbc[hi-1] < th {
		hi--
	}
	return lo, hi
}

// reachScan returns the tightest [lo, hi) containing every v with
// t[v] ≥ th, t row u of a pair's through plane, reading only the row's
// span of the reach band of th; (0, 0) when none passes.
func reachScan(band pairwise.Band, u int, t []mat.Score, th mat.Score) (lo, hi int) {
	lo, hi = band.Span(u)
	for lo < hi && t[lo] < th {
		lo++
	}
	if lo == hi {
		return 0, 0
	}
	for t[hi-1] < th {
		hi--
	}
	return lo, hi
}
