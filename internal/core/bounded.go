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
//     test, e.g. T_AB(i,j) ≥ L − optAC − optBC. Scanning the through-plane
//     rows yields a j-hull per i and candidate k-intervals per (i, ·) and
//     (·, j) in O(nm + np + mp).
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
// cancelled per block via the scheduler, like every parallel kernel here.
// Scores and moves are bit-identical to AlignParallel: band values never
// exceed the true DP values, so the preference-ordered traceback can never
// match a spurious predecessor.
//
// The bound is the tighter of lower and the TrivialAlignment score: pass
// a valid lower bound (any real alignment's SP score) to shrink the band,
// or mat.NegInf for none. The MaxBytes admission counts what the kernel
// actually holds: the band (data + index), the three through-planes, and
// the pair-score tables. The planner's explicit bounded kernel runs the
// same Prefix, seeded with center-star refined (plan.RunBandFirst).
func AlignBounded(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options, lower mat.Score) (*alignment.Alignment, PruneStats, error) {
	pre, err := NewPrefix(tr, sch, pairwise.Planes{}, pairwise.Planes{}, opt.workers(), false)
	if err != nil {
		return nil, PruneStats{}, err
	}
	defer pre.Release()
	return pre.Plan(lower).Fill(ctx, opt)
}

// Prefix is the O(n²) part of a Carrillo–Lipman bounded search over one
// triple: its three pairwise through planes, the trivial lower bound and,
// when kept, the three suffix planes A* reads. Nothing band-shaped is
// allocated before a planned Band is filled, so a caller can count the
// band, and walk away from it, for the price of the planes.
type Prefix struct {
	tr         seq.Triple
	sch        *scoring.Scheme
	ca, cb, cc []int8
	trivial    mat.Score
	workers    int
	fwd        pairwise.Planes // Forward planes; the through planes once through
	bwd        pairwise.Planes // suffix planes, until added unless kept
	through    bool            // fwd holds the through planes
	keep       bool            // bwd stays for A* after the add
}

// NewPrefix builds the prefix from the triple's three Forward planes fwd
// (pairwise.Forwards of A, B and C; zero Planes are filled here), and
// turns them into through planes in place, one pair per goroutine on up
// to workers goroutines. A caller that already swept the suffix planes
// passes them as bwd (pairwise.Sweeps): they are then added only when a
// band is planned, since SampleCells reads them as they are, and with
// keepSuffix they stay in the prefix for A*, which then runs without
// filling a plane twice. keepSuffix needs bwd. NewPrefix takes ownership
// of fwd and bwd, also on error; Release returns every plane to the arena.
func NewPrefix(tr seq.Triple, sch *scoring.Scheme, fwd, bwd pairwise.Planes, workers int, keepSuffix bool) (*Prefix, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err == nil && keepSuffix && bwd[0] == nil {
		err = fmt.Errorf("core: a prefix keeps suffix planes only when given them")
	}
	var trivial *alignment.Alignment
	if err == nil {
		trivial, err = TrivialAlignment(tr, sch)
	}
	if err != nil {
		fwd.Release()
		bwd.Release()
		return nil, err
	}
	if fwd[0] == nil {
		fwd = pairwise.Forwards(ca, cb, cc, sch, workers)
	}
	p := &Prefix{tr: tr, sch: sch, ca: ca, cb: cb, cc: cc, trivial: trivial.Score,
		workers: workers, fwd: fwd, bwd: bwd, keep: keepSuffix}
	if bwd[0] == nil {
		fwd.AddBackwards(ca, cb, cc, sch, workers)
		p.through = true
	}
	return p, nil
}

// Release returns the prefix's planes to the arena; releasing twice is
// safe.
func (p *Prefix) Release() {
	p.fwd.Release()
	p.bwd.Release()
}

// bounded is the prefix's bound context at the tighter of lower and the
// trivial bound, over the through planes, adding the suffix planes into
// the forward ones first if that is still to do.
func (p *Prefix) bounded(lower mat.Score) *boundCtx {
	if !p.through {
		p.fwd.Add(p.bwd, p.workers)
		p.through = true
		if !p.keep {
			p.bwd.Release()
		}
	}
	return throughCtx(p.fwd, max(lower, p.trivial))
}

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
// their order. It reads the forward and suffix planes as they are, so a
// caller can tell a band far wider than it can afford before paying for
// the through planes, a tighter bound or the exact count.
func (p *Prefix) SampleCells(lower mat.Score, limit int64) int64 {
	n, m, q := len(p.ca), len(p.cb), len(p.cc)
	opt := p.fwd.Optima()
	bound := max(lower, p.trivial)
	thAB := bound - opt[pairwise.AC] - opt[pairwise.BC]
	thAC := bound - opt[pairwise.AB] - opt[pairwise.BC]
	thBC := bound - opt[pairwise.AB] - opt[pairwise.AC]
	zeros := make([]mat.Score, max(m, q)+1)
	// suffix is row i of pair x's suffix plane: zeros once the forward
	// plane already holds the through values.
	suffix := func(x, i, width int) []mat.Score {
		if p.through {
			return zeros[:width]
		}
		return p.bwd[x].Row(i)[:width]
	}
	fAB, fAC, fBC := p.fwd[pairwise.AB], p.fwd[pairwise.AC], p.fwd[pairwise.BC]
	// BC intervals are scanned only for the j a sampled lane reaches.
	kLoB := make([]int32, m+1)
	kHiB := make([]int32, m+1)
	for j := range kLoB {
		kLoB[j] = -1
	}
	tac := make([]mat.Score, q+1)
	rows := int64(min(n+1, bandSampleRows))
	var cells int64
	for r := range rows {
		i := int((2*r + 1) * int64(n+1) / (2 * rows))
		fab, bab := fAB.Row(i)[:m+1], suffix(pairwise.AB, i, m+1)
		jLo, jHi := scanSum(fab, bab, thAB)
		for k, v := range suffix(pairwise.AC, i, q+1) {
			tac[k] = fAC.Row(i)[k] + v
		}
		kLoA, kHiA := scanInterval(tac, thAC)
		step := max(1, (jHi-jLo)/bandSampleLanes)
		var rowCells, counted int64
		for j := jLo; j < jHi; j += step {
			counted++
			fbc, bbc := fBC.Row(j)[:q+1], suffix(pairwise.BC, j, q+1)
			if kLoB[j] < 0 {
				lo, hi := scanSum(fbc, bbc, thBC)
				kLoB[j], kHiB[j] = int32(lo), int32(hi)
			}
			lo, hi := max(kLoA, int(kLoB[j])), min(kHiA, int(kHiB[j]))
			th := bound - fab[j] - bab[j]
			for lo < hi && tac[lo]+fbc[lo]+bbc[lo] < th {
				lo++
			}
			for lo < hi && tac[hi-1]+fbc[hi-1]+bbc[hi-1] < th {
				hi--
			}
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

// scanSum is scanInterval over the row sum f+b.
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

// Band is a band planned on a Prefix: per-row hulls and per-lane
// k-intervals, counted exactly, with nothing allocated yet.
type Band struct {
	p                  *Prefix
	jLo, jHi, kLo, kHi []int32
	stats              PruneStats
}

// Plan plans the band at the tighter of lower and the trivial bound.
func (p *Prefix) Plan(lower mat.Score) *Band {
	n, m, q := len(p.ca), len(p.cb), len(p.cc)
	bc := p.bounded(lower)
	b := &Band{p: p, stats: PruneStats{TotalCells: int64(n+1) * int64(m+1) * int64(q+1), LowerBound: bc.bound}}
	b.jLo, b.jHi, b.kLo, b.kHi, b.stats.EvaluatedCells = planBand(bc, n, m, q)
	return b
}

// Stats is the band's PruneStats before the fill: its lattice size, the
// cells it stores (all of which the fill evaluates) and its lower bound.
func (b *Band) Stats() PruneStats { return b.stats }

// Fill allocates the band and runs the banded DP and its traceback: the
// body of AlignBounded. The MaxBytes admission counts what the kernel
// actually holds: the band (data + index), the three through planes, and
// the pair-score tables.
func (b *Band) Fill(ctx context.Context, opt Options) (*alignment.Alignment, PruneStats, error) {
	p := b.p
	stats := b.stats
	if err := checkCtx(ctx); err != nil {
		return nil, stats, err
	}
	n, m, q := len(p.ca), len(p.cb), len(p.cc)
	tableBytes := mat.PlaneBytes(n+1, m+1) + mat.PlaneBytes(n+1, q+1) + mat.PlaneBytes(m+1, q+1)
	need := mat.BandTensor3Bytes(stats.EvaluatedCells, int64(len(b.kLo)), int64(n+1)) + throughCtx(p.fwd, 0).planeBytes() + tableBytes
	if need > opt.maxBytes() {
		return nil, stats, fmt.Errorf("%w: need %d bytes (band %d cells), cap %d", ErrTooLarge, need, stats.EvaluatedCells, opt.maxBytes())
	}

	st := newScoreTables(p.ca, p.cb, p.cc, p.sch)
	defer st.release()
	band := mat.NewBandTensor3(n+1, m+1, q+1, b.jLo, b.jHi, b.kLo, b.kHi)
	defer band.Release()
	stats.EvaluatedCells = band.Cells()
	ge2 := 2 * p.sch.GapExtend()

	edge := opt.BlockSize
	if edge <= 0 {
		edge = 2 * DefaultBlockSize
	}
	si := wavefront.Partition(n+1, edge)
	sj := wavefront.Partition(m+1, edge)
	if err := wavefront.Run2DContext(ctx, len(si), len(sj), opt.workers(), func(bi, bj int) {
		for i := si[bi].Lo; i < si[bi].Hi; i++ {
			lo := max(sj[bj].Lo, int(b.jLo[i]))
			hi := min(sj[bj].Hi, int(b.jHi[i]))
			for j := lo; j < hi; j++ {
				fillLaneBand(band, st, ge2, i, j)
			}
		}
	}); err != nil {
		return nil, stats, err
	}

	moves, err := tracebackBand(band, p.ca, p.cb, p.cc, p.sch)
	if err != nil {
		return nil, stats, fmt.Errorf("core: bounded traceback failed (is the lower bound valid?): %w", err)
	}
	aln := &alignment.Alignment{Triple: p.tr, Moves: moves, Score: band.At(n, m, q)}
	stats.Optimum = aln.Score
	return aln, stats, nil
}

// AStar runs the A* frontier (AlignAStar) on the prefix's suffix planes at
// the tighter of lower and the trivial bound. The prefix must have been
// built with keepSuffix; its forward (or through) planes are released
// first, since the frontier never reads them.
func (p *Prefix) AStar(ctx context.Context, opt Options, lower mat.Score) (*alignment.Alignment, PruneStats, error) {
	if !p.keep {
		return nil, PruneStats{}, fmt.Errorf("core: A* on a prefix without suffix planes")
	}
	p.fwd.Release()
	sc := &suffixCtx{bAB: p.bwd[pairwise.AB], bAC: p.bwd[pairwise.AC], bBC: p.bwd[pairwise.BC]}
	return astarSearch(ctx, p.tr, p.ca, p.cb, p.cc, p.sch, opt, sc, max(lower, p.trivial))
}

// planBand derives the sparse band from the through-planes: per-i j-hulls,
// then per-lane k-intervals refined by the exact three-way test. The
// returned slices feed mat.NewBandTensor3 directly; cells is the stored
// cell count for memory admission.
func planBand(bc *boundCtx, n, m, p int) (jLo, jHi, kLo, kHi []int32, cells int64) {
	optAB := bc.tAB.At(0, 0)
	optAC := bc.tAC.At(0, 0)
	optBC := bc.tBC.At(0, 0)

	// Pairwise 2D bands: first/last index passing the relaxed per-pair test.
	jLo = make([]int32, n+1)
	jHi = make([]int32, n+1)
	thAB := bc.bound - optAC - optBC
	for i := 0; i <= n; i++ {
		row := bc.tAB.Row(i)
		lo, hi := scanInterval(row, thAB)
		jLo[i], jHi[i] = int32(lo), int32(hi)
	}
	kLoA := make([]int32, n+1)
	kHiA := make([]int32, n+1)
	thAC := bc.bound - optAB - optBC
	for i := 0; i <= n; i++ {
		lo, hi := scanInterval(bc.tAC.Row(i), thAC)
		kLoA[i], kHiA[i] = int32(lo), int32(hi)
	}
	kLoB := make([]int32, m+1)
	kHiB := make([]int32, m+1)
	thBC := bc.bound - optAB - optAC
	for j := 0; j <= m; j++ {
		lo, hi := scanInterval(bc.tBC.Row(j), thBC)
		kLoB[j], kHiB[j] = int32(lo), int32(hi)
	}

	// Lane refinement inside the candidate intervals.
	nLanes := 0
	for i := 0; i <= n; i++ {
		nLanes += int(jHi[i] - jLo[i])
	}
	kLo = make([]int32, 0, nLanes)
	kHi = make([]int32, 0, nLanes)
	for i := 0; i <= n; i++ {
		tabRow := bc.tAB.Row(i)
		tac := bc.tAC.Row(i)
		for j := int(jLo[i]); j < int(jHi[i]); j++ {
			tbc := bc.tBC.Row(j)
			th := bc.bound - tabRow[j]
			lo := max(int(kLoA[i]), int(kLoB[j]))
			hi := min(int(kHiA[i]), int(kHiB[j]))
			for lo < hi && tac[lo]+tbc[lo] < th {
				lo++
			}
			if lo >= hi {
				kLo = append(kLo, 0)
				kHi = append(kHi, 0)
				continue
			}
			for tac[hi-1]+tbc[hi-1] < th {
				hi--
			}
			kLo = append(kLo, int32(lo))
			kHi = append(kHi, int32(hi))
			cells += int64(hi - lo)
		}
	}
	return jLo, jHi, kLo, kHi, cells
}

// scanInterval returns the tightest [lo, hi) containing every index v of
// row with row[v] ≥ th; (0, 0) when none passes.
func scanInterval(row []mat.Score, th mat.Score) (lo, hi int) {
	hi = len(row)
	for lo < hi && row[lo] < th {
		lo++
	}
	if lo == hi {
		return 0, 0
	}
	for row[hi-1] < th {
		hi--
	}
	return lo, hi
}

// bandLaneOf is BandTensor3.Lane tolerating negative indices, so the lane
// fill can ask for i-1/j-1 predecessors unconditionally.
func bandLaneOf(b *mat.BandTensor3, i, j int) ([]mat.Score, int, bool) {
	if i < 0 || j < 0 {
		return nil, 0, false
	}
	return b.Lane(i, j)
}

// bandVal reads one cell from a lane slice fetched by bandLaneOf,
// returning NegInf outside the stored interval — the same sentinel a
// pruned cell holds in the dense kernels.
func bandVal(lane []mat.Score, lo int, ok bool, k int) mat.Score {
	if !ok || k < lo || k >= lo+len(lane) {
		return mat.NegInf
	}
	return lane[k-lo]
}

// fillLaneBand fills the stored k-interval of lane (i, j). Predecessor
// lanes are fetched once per lane; every per-cell read clamps to NegInf
// outside the band, so in-band values never exceed the true DP values
// (which is what keeps the preference-ordered traceback exact).
func fillLaneBand(b *mat.BandTensor3, st *scoreTables, ge2 mat.Score, i, j int) {
	cur, lo, ok := b.Lane(i, j)
	if !ok {
		return
	}
	hi := lo + len(cur)
	l11, o11, ok11 := bandLaneOf(b, i-1, j-1)
	l10, o10, ok10 := bandLaneOf(b, i-1, j)
	l01, o01, ok01 := bandLaneOf(b, i, j-1)
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
