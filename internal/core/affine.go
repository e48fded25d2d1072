package core

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// The affine aligner generalizes Gotoh's algorithm to three sequences.
// Each lattice cell carries seven states — the non-empty subsets of
// {A, B, C} that consumed a residue in the last column. Gap-open charges
// use the quasi-natural gap count (Altschul 1989): for each induced pair,
// a one-sided gap column pays GapOpen unless the previous column had the
// same one-sided pattern for that pair. The quasi-natural count equals the
// natural count except when a pairwise gap run is interrupted by columns
// gapped in both sequences of the pair, where it may charge an extra open;
// SPScoreAffine reports the natural score of the returned alignment, which
// is therefore never below Alignment.Score.

// openCount[q][s] is the number of induced pairs whose one-sided gap
// pattern in mask s differs from the pattern in the previous mask q; each
// such pair pays one GapOpen. q == 7 (all consume) doubles as the
// "before the first column" state.
var openCount [8][8]int8

func init() {
	pairBits := [3][2]alignment.Move{
		{alignment.ConsumeA, alignment.ConsumeB},
		{alignment.ConsumeA, alignment.ConsumeC},
		{alignment.ConsumeB, alignment.ConsumeC},
	}
	for q := 0; q < 8; q++ {
		for s := 1; s < 8; s++ {
			var n int8
			for _, pb := range pairBits {
				u := alignment.Move(s)&pb[0] != 0
				v := alignment.Move(s)&pb[1] != 0
				pu := alignment.Move(q)&pb[0] != 0
				pv := alignment.Move(q)&pb[1] != 0
				if (u && !v && !(pu && !pv)) || (!u && v && !(!pu && pv)) {
					n++
				}
			}
			openCount[q][s] = n
		}
	}
	for s := 1; s < 8; s++ {
		affineGroups[s] = newAffineGroup(alignment.Move(s))
		// The row kernel (affine_amd64.s) charges one open to every one
		// group and two to every two group, and none into XXX.
		want := [2]int8{1, 2}
		if s == 7 {
			want = [2]int8{0, 0}
		}
		if affineGroups[s].opens != want {
			panic(fmt.Sprintf("core: open counts into mask %s are %v, want %v", alignment.Move(s), affineGroups[s].opens, want))
		}
	}
}

// colBaseAffine is the substitution-plus-gap-extend contribution of a
// column with mask s (gap opens are charged by the transition).
func colBaseAffine(sch *scoring.Scheme, s alignment.Move, ai, bj, ck int8) mat.Score {
	ge := sch.GapExtend()
	var total mat.Score
	addPair := func(u, v bool, x, y int8) {
		switch {
		case u && v:
			total += sch.Sub(x, y)
		case u || v:
			total += ge
		}
	}
	a := s&alignment.ConsumeA != 0
	b := s&alignment.ConsumeB != 0
	c := s&alignment.ConsumeC != 0
	addPair(a, b, ai, bj)
	addPair(a, c, ai, ck)
	addPair(b, c, bj, ck)
	return total
}

func moveDelta(s alignment.Move) (di, dj, dk int) {
	if s&alignment.ConsumeA != 0 {
		di = 1
	}
	if s&alignment.ConsumeB != 0 {
		dj = 1
	}
	if s&alignment.ConsumeC != 0 {
		dk = 1
	}
	return
}

// AlignAffineParallel computes an optimal three-sequence alignment under
// the quasi-natural affine sum-of-pairs objective with the blocked-
// wavefront schedule over a goroutine pool — the paper's parallelization
// applied to the seven-state recurrence. Options.Workers is its only
// parallelism knob; Workers: 1 is the sequential fill. With GapOpen == 0
// it returns the same optimum as AlignParallel. Memory is seven full
// lattices.
func AlignAffineParallel(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if 7*FullMatrixBytes(tr) > opt.maxBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, 7*FullMatrixBytes(tr), opt.maxBytes())
	}
	moves, score, err := affineDPMoves(ctx, ca, cb, cc, sch, opt, alignment.MoveXXX, 0)
	if err != nil {
		return nil, err
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves, Score: score}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("core: affine alignment invalid: %w", err)
	}
	return aln, nil
}

// affineDPMoves solves the 7-state affine DP over a (sub-)box with
// explicit boundary states: q0 is the mask of the column immediately
// before the box (7 at the true origin, where the first column pays its
// opens), and sEnd, when non-zero, constrains the box's final column mask
// (used by the linear-space divide-and-conquer to glue sub-solutions
// without double-charging gap opens). The seven lattices are filled by
// the blocked wavefront at opt's workers and tile shape. It returns the
// move list and its quasi-natural score under those boundary conditions.
func affineDPMoves(ctx context.Context, ca, cb, cc []int8, sch *scoring.Scheme, opt Options, q0, sEnd alignment.Move) ([]alignment.Move, mat.Score, error) {
	n, m, p := len(ca), len(cb), len(cc)

	if n == 0 && m == 0 && p == 0 {
		if sEnd != 0 && sEnd != q0 {
			return nil, 0, fmt.Errorf("core: empty affine box cannot end in state %s", sEnd)
		}
		return nil, 0, nil
	}

	// d[s-1] holds the best score of prefix alignments whose last column
	// has mask s. The origin is seeded in state q0 so that the first real
	// column charges opens relative to the enclosing context.
	f := newAffineFill(ca, cb, cc, sch)
	defer f.release()
	var d [7]*mat.Tensor3
	for s := 0; s < 7; s++ {
		d[s] = mat.GetTensor3(n+1, m+1, p+1)
		defer mat.PutTensor3(d[s])
	}
	seedAffineOrigin(&d, q0)

	if err := fillAffine(ctx, &d, &f, opt); err != nil {
		return nil, 0, err
	}
	return affineTraceback(d, ca, cb, cc, sch, sEnd)
}

// fillAffine fills the seven seeded lattices by the blocked wavefront at
// opt's workers and tile shape.
func fillAffine(ctx context.Context, d *[7]*mat.Tensor3, f *affineFill, opt Options) error {
	ni, nj, nk := d[0].Dims()
	// 28 bytes per cell: seven 4-byte lattices, one per affine gap state.
	ti, tj, tk := opt.tileDims(ni, nj, nk, 28)
	si := wavefront.Partition(ni, ti)
	sj := wavefront.Partition(nj, tj)
	sk := wavefront.Partition(nk, tk)
	return wavefront.Run3DContext(ctx, len(si), len(sj), len(sk), opt.workers(), func(bi, bj, bk int) {
		fillRangeAffine(d, f, si[bi], sj[bj], sk[bk])
	})
}

// fillRangeAffine evaluates all seven state lattices over one block in
// lexicographic order, one lane-pass row per i. Every predecessor cell a
// state transition reads lies in this block or in an axis-predecessor
// block, so the blocked wavefront schedule of Run3D is sufficient — the
// same argument as the linear-gap kernel, applied per state. The pass
// writes every cell of the block; the caller seeds the origin
// (seedAffineOrigin) before the block that holds it runs.
func fillRangeAffine(d *[7]*mat.Tensor3, f *affineFill, si, sj, sk wavefront.Span) {
	if fpFill.Fire() {
		panic("faultpoint: core.fill.block")
	}
	_, _, nk := d[0].Dims()
	r := affineRow{nk: nk}
	for i := si.Lo; i < si.Hi; i++ {
		for s := range d {
			r.cur[s] = d[s].Slab(i)
			if i > 0 {
				r.up[s] = d[s].Slab(i - 1)
			}
		}
		f.row(&r, i, sj.Lo, sj.Hi, sk.Lo, sk.Hi)
	}
}

// affineTraceback selects the final state (constrained by sEnd when
// non-zero) and recovers the move sequence from the seven state lattices.
func affineTraceback(d [7]*mat.Tensor3, ca, cb, cc []int8, sch *scoring.Scheme, sEnd alignment.Move) ([]alignment.Move, mat.Score, error) {
	n, m, p := len(ca), len(cb), len(cc)
	go_ := sch.GapOpen()
	var bestS alignment.Move
	best := mat.NegInf
	if sEnd != 0 {
		bestS, best = sEnd, d[sEnd-1].At(n, m, p)
	} else {
		bestS, best = 1, d[0].At(n, m, p)
		for s := alignment.Move(2); s <= 7; s++ {
			if v := d[s-1].At(n, m, p); v > best {
				best, bestS = v, s
			}
		}
	}
	if best <= mat.NegInf/2 {
		return nil, 0, fmt.Errorf("core: affine box (%d,%d,%d) infeasible for end state %s", n, m, p, sEnd)
	}
	moves := make([]alignment.Move, 0, n+m+p)
	i, j, k, s := n, m, p, bestS
	for i > 0 || j > 0 || k > 0 {
		var ai, bj, ck int8
		if i > 0 {
			ai = ca[i-1]
		}
		if j > 0 {
			bj = cb[j-1]
		}
		if k > 0 {
			ck = cc[k-1]
		}
		di, dj, dk := moveDelta(s)
		pi, pj, pk := i-di, j-dj, k-dk
		v := d[s-1].At(i, j, k)
		base := colBaseAffine(sch, s, ai, bj, ck)
		found := false
		for q := alignment.Move(1); q <= 7; q++ {
			pv := d[q-1].At(pi, pj, pk)
			if pv <= mat.NegInf/2 {
				continue
			}
			if pv+mat.Score(openCount[q][s])*go_+base == v {
				moves = append(moves, s)
				i, j, k, s = pi, pj, pk, q
				found = true
				break
			}
		}
		if !found {
			return nil, 0, fmt.Errorf("core: affine traceback stuck at (%d,%d,%d) state %s", i, j, k, s)
		}
	}
	reverseMoves(moves)
	return moves, best, nil
}
