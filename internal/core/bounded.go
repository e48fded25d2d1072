package core

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// AlignBounded computes the same optimum as AlignParallel while allocating
// only the Carrillo–Lipman admissible band: memory scales with the cells
// the bound admits, not with n·m·p, which is what lets exact alignment of
// similar triples run far past the full-lattice memory ceiling.
//
// The band is planned in two phases before any lattice byte is allocated:
//
//  1. Pairwise 2D bands. With optXY the unconstrained pairwise optima,
//     a cell (i, j, k) admissible under the three-way test
//     T_AB(i,j)+T_AC(i,k)+T_BC(j,k) ≥ L must satisfy each relaxed pairwise
//     test, e.g. T_AB(i,j) ≥ L − optAC − optBC. Scanning the three
//     through planes yields a j-hull per i and candidate k-intervals per
//     (i, ·) and (·, j) in O(nm + np + mp).
//  2. Lane refinement. Inside each candidate interval the exact three-way
//     test is applied from both ends, shrinking to the tightest contiguous
//     interval containing every admissible k. The stored band is therefore
//     a contiguous superset of the admissible set — and the admissible set
//     contains every cell of every optimal path, so the band DP computes
//     exact values along all optimal paths (out-of-band reads are NegInf,
//     matching the dense pruned kernel's sentinel for pruned cells).
//
// The fill runs the 2D blocked wavefront over (i, j) — each (i, j) lane is
// filled atomically, so the k-1 dependency stays inside the lane — and is
// cancelled per block via the scheduler, like every parallel kernel here;
// a band under serialBandCells cells runs as one block on the caller. The
// lanes read a query profile of C, not pair-score tables.
// Scores and moves are bit-identical to AlignParallel: band values never
// exceed the true DP values, so the preference-ordered traceback can never
// match a spurious predecessor.
//
// The bound is the tighter of lower and the TrivialAlignment score: pass
// a valid lower bound (any real alignment's SP score) to shrink the band,
// or mat.NegInf for none. The MaxBytes admission counts what the kernel
// actually holds: the band (data + index), the three through planes, and
// the profile. The planner's explicit bounded kernel runs the same Prefix,
// seeded with center-star refined (plan.RunBandFirst).
func AlignBounded(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options, lower mat.Score) (*alignment.Alignment, PruneStats, error) {
	pre, err := NewPrefix(tr, sch, pairwise.Planes{}, lower, opt.workers())
	if err != nil {
		return nil, PruneStats{}, err
	}
	defer pre.Release()
	return pre.Plan(lower).Fill(ctx, opt)
}

// Prefix is the O(n²) part of a Carrillo–Lipman bounded search over one
// triple: its three pairwise through planes, swept in the bands its lower
// bound admits, and that bound. Nothing band-shaped is allocated before a
// planned Band is filled, so a caller can count the band, and walk away
// from it, for the price of the planes.
type Prefix struct {
	tr         seq.Triple
	sch        *scoring.Scheme
	ca, cb, cc []int8
	bound      mat.Score       // the tighter of the lower bound and the trivial one
	fwd        pairwise.Planes // the through planes T = F + B
}

// NewPrefix builds the prefix from the triple's three Forward planes fwd
// (pairwise.Forwards of A, B and C; zero Planes are swept here) at the
// tighter of lower and the TrivialAlignment score, L. It adds each pair's
// suffix sweep into its forward plane in the band of its pair threshold
// th_XY = L − opt_XZ − opt_YZ, widening the forward plane to that band
// first if it was swept in a narrower one (pairwise.Planes.AddSuffixes),
// one pair per goroutine on up to workers goroutines: every later scan or
// plan runs at a bound of at least L, and so reads only cells those bands
// hold, exact wherever they can pass. NewPrefix takes ownership of fwd,
// also on error; Release returns its planes to the arena. A bound above
// the pairwise upper bound optAB + optAC + optBC, which no alignment
// exceeds, is an error.
func NewPrefix(tr seq.Triple, sch *scoring.Scheme, fwd pairwise.Planes, lower mat.Score, workers int) (*Prefix, error) {
	ca, cb, cc, err := prepare(tr, sch)
	var trivial *alignment.Alignment
	if err == nil {
		trivial, err = TrivialAlignment(tr, sch)
	}
	if err != nil {
		fwd.Release()
		return nil, err
	}
	if fwd.P[0] == nil {
		fwd = pairwise.Forwards(ca, cb, cc, sch, workers)
	}
	bound := max(lower, trivial.Score)
	opt := fwd.Optima()
	if upper := opt[pairwise.AB] + opt[pairwise.AC] + opt[pairwise.BC]; bound > upper {
		fwd.Release()
		return nil, fmt.Errorf("core: lower bound %d exceeds the pairwise upper bound %d", bound, upper)
	}
	th := [3]mat.Score{
		pairwise.AB: bound - opt[pairwise.AC] - opt[pairwise.BC],
		pairwise.AC: bound - opt[pairwise.AB] - opt[pairwise.BC],
		pairwise.BC: bound - opt[pairwise.AB] - opt[pairwise.AC],
	}
	fwd.AddSuffixes(ca, cb, cc, sch, th, workers)
	return &Prefix{tr: tr, sch: sch, ca: ca, cb: cb, cc: cc, bound: bound, fwd: fwd}, nil
}

// Release returns the prefix's planes to the arena; releasing twice is
// safe.
func (p *Prefix) Release() { p.fwd.Release() }

// bandSampleRows is how many rows of A SampleCells counts: one at the
// middle of each of 8 equal strata. bandSampleLanes caps the lanes it
// counts in one row: a wider row is counted at an even stride and scaled.
// The count then grows as n, not n³, so on the triples it turns away it
// stays a small share of the dense fill, while the few lanes of a thin
// band are all counted.
const (
	bandSampleRows  = 8
	bandSampleLanes = 64
)

// SampleCells estimates the cells of the band at lower bound lower from a
// sample of bandSampleRows rows of A (and of at most bandSampleLanes lanes
// in each), scaled to all rows, and stops early
// once the rows it has counted already stand for more than limit cells; a
// result above limit is therefore decided by the rows alone, whatever
// their order. It runs Plan's scan on those rows, so a caller can tell a
// band far wider than it can afford before paying for a tighter bound or
// the exact count.
func (p *Prefix) SampleCells(lower mat.Score, limit int64) int64 {
	n := len(p.ca)
	s := p.scan(lower)
	rows := int64(min(n+1, bandSampleRows))
	var cells int64
	for r := range rows {
		i := int((2*r + 1) * int64(n+1) / (2 * rows))
		jLo, jHi := s.hull(i)
		s.row(i)
		step := max(1, (jHi-jLo)/bandSampleLanes)
		var rowCells, counted int64
		for j := jLo; j < jHi; j += step {
			counted++
			lo, hi := s.lane(j)
			rowCells += int64(hi - lo)
		}
		if counted > 0 {
			cells += rowCells * int64(jHi-jLo) / counted
		}
		if est := cells * int64(n+1) / rows; est > limit {
			return est
		}
	}
	return cells * int64(n+1) / rows
}

// Band is a band planned on a Prefix: per-row hulls and per-lane
// k-intervals, counted exactly, with nothing allocated yet.
type Band struct {
	p                  *Prefix
	jLo, jHi, kLo, kHi []int32
	stats              PruneStats
}

// Plan plans the band at the tighter of lower and the prefix's bound:
// every row's j-hull, then every lane's k-interval, refined by the exact
// three-way test from both ends, so the band is the tightest contiguous
// superset of the admissible cells, lane by lane. The intervals feed
// mat.NewBandTensor3 directly, and the stored cell count is known before
// anything band-shaped is allocated.
func (p *Prefix) Plan(lower mat.Score) *Band {
	n, m, q := len(p.ca), len(p.cb), len(p.cc)
	s := p.scan(lower)
	b := &Band{p: p, jLo: make([]int32, n+1), jHi: make([]int32, n+1),
		stats: PruneStats{TotalCells: int64(n+1) * int64(m+1) * int64(q+1), LowerBound: s.bound}}
	lanes := 0
	for i := 0; i <= n; i++ {
		jLo, jHi := s.hull(i)
		b.jLo[i], b.jHi[i] = int32(jLo), int32(jHi)
		lanes += jHi - jLo
	}
	b.kLo, b.kHi = make([]int32, 0, lanes), make([]int32, 0, lanes)
	for i := 0; i <= n; i++ {
		s.row(i)
		for j := int(b.jLo[i]); j < int(b.jHi[i]); j++ {
			lo, hi := s.lane(j)
			b.kLo = append(b.kLo, int32(lo))
			b.kHi = append(b.kHi, int32(hi))
			b.stats.EvaluatedCells += int64(hi - lo)
		}
	}
	return b
}

// Stats is the band's PruneStats before the fill: its lattice size, the
// cells it stores (all of which the fill evaluates) and its lower bound.
func (b *Band) Stats() PruneStats { return b.stats }

// serialBandCells is the band size below which Fill runs the whole band
// as one block, row by row on the calling goroutine, whatever the worker
// count. A thin band hugs the lattice diagonal, so each anti-diagonal of
// the (i, j) block grid holds one or two of its blocks: there is little
// for a second worker to take, and the scheduling costs more than it
// spreads. Measured on 300–600-residue DNA bands of 16K–1.2M cells, two
// workers never filled one faster than a single block did, and at most
// tied it past about 500K cells (EXPERIMENTS F9); above this size the
// blocked run keeps its per-block cancellation.
const serialBandCells = 1 << 19

// Fill allocates the band and runs the banded DP and its traceback: the
// body of AlignBounded. The lanes read C's query profile (σ × (p+1)
// scores) for their A-vs-C and B-vs-C terms and look Sub(A, B) up once per
// lane. The MaxBytes admission counts what the kernel actually holds: the
// band (data + index), the prefix's pair planes and the profile.
func (b *Band) Fill(ctx context.Context, opt Options) (*alignment.Alignment, PruneStats, error) {
	band, stats, err := b.fill(ctx, opt)
	if err != nil {
		return nil, stats, err
	}
	defer band.Release()
	p := b.p
	moves, err := tracebackBand(band, p.ca, p.cb, p.cc, p.sch)
	if err != nil {
		return nil, stats, fmt.Errorf("core: bounded traceback failed (is the lower bound valid?): %w", err)
	}
	n, m, q := len(p.ca), len(p.cb), len(p.cc)
	aln := &alignment.Alignment{Triple: p.tr, Moves: moves, Score: band.At(n, m, q)}
	stats.Optimum = aln.Score
	return aln, stats, nil
}

// fill is Fill up to the traceback: it admits, allocates and fills the
// band, which the caller releases.
func (b *Band) fill(ctx context.Context, opt Options) (*mat.BandTensor3, PruneStats, error) {
	p := b.p
	stats := b.stats
	if err := checkCtx(ctx); err != nil {
		return nil, stats, err
	}
	n, m, q := len(p.ca), len(p.cb), len(p.cc)
	need := mat.BandTensor3Bytes(stats.EvaluatedCells, int64(len(b.kLo)), int64(n+1)) +
		p.planeBytes() + mat.PlaneBytes(p.sch.Alphabet().Size(), q+1)
	if need > opt.maxBytes() {
		return nil, stats, fmt.Errorf("%w: need %d bytes (band %d cells), cap %d", ErrTooLarge, need, stats.EvaluatedCells, opt.maxBytes())
	}

	prof := newPairProfile(p.cc, p.sch)
	defer prof.release()
	band := mat.NewBandTensor3(n+1, m+1, q+1, b.jLo, b.jHi, b.kLo, b.kHi)
	stats.EvaluatedCells = band.Cells()
	f := &bandFill{band: band, prof: prof, ca: p.ca, cb: p.cb, sch: p.sch, ge2: 2 * p.sch.GapExtend()}

	edge := opt.BlockSize
	if edge <= 0 {
		edge = 2 * DefaultBlockSize
	}
	si := wavefront.Partition(n+1, edge)
	sj := wavefront.Partition(m+1, edge)
	if stats.EvaluatedCells < serialBandCells {
		si = []wavefront.Span{{Lo: 0, Hi: n + 1}}
		sj = []wavefront.Span{{Lo: 0, Hi: m + 1}}
	}
	if err := wavefront.Run2DContext(ctx, len(si), len(sj), opt.workers(), func(bi, bj int) {
		for i := si[bi].Lo; i < si[bi].Hi; i++ {
			up, row := band.Row(i-1), band.Row(i)
			lo := max(sj[bj].Lo, int(b.jLo[i]))
			hi := min(sj[bj].Hi, int(b.jHi[i]))
			for j := lo; j < hi; j++ {
				f.lane(up, row, i, j)
			}
		}
	}); err != nil {
		band.Release()
		return nil, stats, err
	}
	return band, stats, nil
}

// planeBytes is the resident footprint of the prefix's pair planes.
func (p *Prefix) planeBytes() int64 {
	var total int64
	for _, pl := range p.fwd.P {
		total += pl.Bytes()
	}
	return total
}

// bandFill fills the lanes of one band. Its score terms come from C's
// query profile: Sub(A[i-1], C[k-1]) and Sub(B[j-1], C[k-1]) are the
// profile rows of A[i-1] and B[j-1], and Sub(A[i-1], B[j-1]) is one lookup
// per lane, so no n×m score table is built for a fill that visits a thin
// band of it.
type bandFill struct {
	band   *mat.BandTensor3
	prof   *pairProfile
	ca, cb []int8
	sch    *scoring.Scheme
	ge2    mat.Score
}

// lane fills the stored k-interval of lane (i, j), with up and row the
// band's rows i-1 and i. An interior lane (i, j ≥ 1) runs fillLane on its
// three predecessor lanes; lanes on the i = 0 or j = 0 faces, where
// predecessors are missing, run edgeLane.
func (f *bandFill) lane(up, row mat.BandRow, i, j int) {
	cur, lo, ok := row.Lane(j)
	if !ok {
		return
	}
	if i == 0 || j == 0 {
		f.edgeLane(up, row, i, j, cur, lo)
		return
	}
	var p11, p10, p01 padLane
	p11.cells, p11.kLo, ok = up.Lane(j - 1)
	if !ok {
		p11 = padLane{cells: negInfLane}
	}
	p10.cells, p10.kLo, ok = up.Lane(j)
	if !ok {
		p10 = padLane{cells: negInfLane}
	}
	p01.cells, p01.kLo, ok = row.Lane(j - 1)
	if !ok {
		p01 = padLane{cells: negInfLane}
	}
	hi := lo + len(cur)
	fillLane(cur, lo, p11, p10, p01,
		f.prof.Row(f.ca[i-1])[lo:hi], f.prof.Row(f.cb[j-1])[lo:hi], f.sch.Sub(f.ca[i-1], f.cb[j-1]), f.ge2)
}

// padLane reads one predecessor lane as if padded with NegInf on both
// sides: at(k) is the stored cell k, or NegInf outside the stored
// interval, with a clamped load and a select instead of a branch.
type padLane struct {
	cells []mat.Score // never empty
	kLo   int
}

// negInfLane stands in for a lane that stores no cells.
var negInfLane = []mat.Score{mat.NegInf}

func (l padLane) at(k int) mat.Score {
	x := k - l.kLo
	c := min(max(x, 0), len(l.cells)-1)
	v := l.cells[c]
	if c != x {
		v = mat.NegInf
	}
	return v
}

// fillLane fills one interior lane (i, j ≥ 1) of the band. cur holds its
// cells k = lo, lo+1, …; p11, p10 and p01 are the (i-1, j-1), (i-1, j)
// and (i, j-1) lanes; ac and bc are Sub(A[i-1], C[k-1]) and
// Sub(B[j-1], C[k-1]) over cur's k, and sAB is Sub(A[i-1], B[j-1]). Each
// predecessor is read once per k, its k-1 value carried from the step
// before. Every cell starts from the NegInf floor and takes the best of
// its seven moves, GGX reading the cell below it in cur (NegInf below lo),
// so in-band values never exceed the true DP values: what keeps the
// preference-ordered traceback exact.
func fillLane(cur []mat.Score, lo int, p11, p10, p01 padLane, ac, bc []mat.Score, sAB, ge2 mat.Score) {
	sABg := sAB + ge2
	prev := mat.NegInf // the cell below; NegInf below the stored interval
	k := lo
	if k == 0 {
		// Cell k = 0 consumes no residue of C.
		prev = max(mat.NegInf, p11.at(0)+sABg, p10.at(0)+ge2, p01.at(0)+ge2)
		cur[0] = prev
		cur, ac, bc = cur[1:], ac[1:], bc[1:]
		k = 1
	}
	ac, bc = ac[:len(cur)], bc[:len(cur)]
	d11, d10, d01 := p11.at(k-1), p10.at(k-1), p01.at(k-1) // cells at k-1
	for x := range cur {
		u11, u10, u01 := p11.at(k+x), p10.at(k+x), p01.at(k+x) // cells at k
		v := max(mat.NegInf,
			d11+sAB+ac[x]+bc[x], // XXX
			d10+ac[x]+ge2,       // XGX
			d01+bc[x]+ge2,       // GXX
			u11+sABg,            // XXG
			u10+ge2,             // XGG
			u01+ge2)             // GXG
		// GGX last: only it waits on the cell below.
		prev = max(v, prev+ge2)
		cur[x] = prev
		d11, d10, d01 = u11, u10, u01
	}
}

// edgeLane fills lane (i, j) on the i = 0 or j = 0 face: the per-cell form
// of fillLane without the moves whose predecessor lane does not exist, and
// with the origin cell (0, 0, 0) at 0.
func (f *bandFill) edgeLane(up, row mat.BandRow, i, j int, cur []mat.Score, lo int) {
	l10, o10, ok10 := up.Lane(j)
	l01, o01, ok01 := row.Lane(j - 1)
	var acRow, bcRow []mat.Score
	if i > 0 {
		acRow = f.prof.Row(f.ca[i-1])
	}
	if j > 0 {
		bcRow = f.prof.Row(f.cb[j-1])
	}
	prev := mat.NegInf
	for k := lo; k < lo+len(cur); k++ {
		best := mat.NegInf
		if k > 0 {
			if i > 0 {
				best = max(best, bandVal(l10, o10, ok10, k-1)+acRow[k]+f.ge2) // XGX
			}
			if j > 0 {
				best = max(best, bandVal(l01, o01, ok01, k-1)+bcRow[k]+f.ge2) // GXX
			}
			best = max(best, prev+f.ge2) // GGX
		}
		if i > 0 {
			best = max(best, bandVal(l10, o10, ok10, k)+f.ge2) // XGG
		}
		if j > 0 {
			best = max(best, bandVal(l01, o01, ok01, k)+f.ge2) // GXG
		}
		if i == 0 && j == 0 && k == 0 {
			best = 0
		}
		cur[k-lo] = best
		prev = best
	}
}

// bandVal reads one cell from a lane slice fetched by BandRow.Lane,
// returning NegInf outside the stored interval — the same sentinel a
// pruned cell holds in the dense kernels.
func bandVal(lane []mat.Score, lo int, ok bool, k int) mat.Score {
	if !ok || k < lo || k >= lo+len(lane) {
		return mat.NegInf
	}
	return lane[k-lo]
}

// tracebackBand is tracebackTensor over the sparse band: identical
// predecessor preference order, with out-of-band cells reading NegInf so
// they can never match.
func tracebackBand(b *mat.BandTensor3, ca, cb, cc []int8, sch *scoring.Scheme) ([]alignment.Move, error) {
	ge2 := 2 * sch.GapExtend()
	i, j, k := len(ca), len(cb), len(cc)
	moves := make([]alignment.Move, 0, i+j+k)
	for i > 0 || j > 0 || k > 0 {
		v := b.At(i, j, k)
		switch {
		case i > 0 && j > 0 && k > 0 &&
			v == b.At(i-1, j-1, k-1)+colXXX(sch, ca[i-1], cb[j-1], cc[k-1]):
			moves = append(moves, alignment.MoveXXX)
			i, j, k = i-1, j-1, k-1
		case i > 0 && j > 0 && v == b.At(i-1, j-1, k)+sch.Sub(ca[i-1], cb[j-1])+ge2:
			moves = append(moves, alignment.MoveXXG)
			i, j = i-1, j-1
		case i > 0 && k > 0 && v == b.At(i-1, j, k-1)+sch.Sub(ca[i-1], cc[k-1])+ge2:
			moves = append(moves, alignment.MoveXGX)
			i, k = i-1, k-1
		case j > 0 && k > 0 && v == b.At(i, j-1, k-1)+sch.Sub(cb[j-1], cc[k-1])+ge2:
			moves = append(moves, alignment.MoveGXX)
			j, k = j-1, k-1
		case i > 0 && v == b.At(i-1, j, k)+ge2:
			moves = append(moves, alignment.MoveXGG)
			i--
		case j > 0 && v == b.At(i, j-1, k)+ge2:
			moves = append(moves, alignment.MoveGXG)
			j--
		case k > 0 && v == b.At(i, j, k-1)+ge2:
			moves = append(moves, alignment.MoveGGX)
			k--
		default:
			return nil, fmt.Errorf("core: band traceback stuck at (%d,%d,%d)", i, j, k)
		}
	}
	reverseMoves(moves)
	return moves, nil
}
