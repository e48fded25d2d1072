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

// fillRangeAffine evaluates all seven state lattices over one block in
// lexicographic order, one grouped-open lane pass per (i, j) lane. Every
// predecessor cell a state transition reads lies in this block or in an
// axis-predecessor block, so the blocked wavefront schedule of Run3D is
// sufficient — the same argument as the linear-gap kernel, applied per
// state. The pass writes every cell of the block; the caller seeds the
// origin (seedAffineOrigin) before the block that holds it runs.
func fillRangeAffine(d *[7]*mat.Tensor3, st *scoreTables, f *affineFill, si, sj, sk wavefront.Span) {
	if fpFill.Fire() {
		panic("faultpoint: core.fill.block")
	}
	var cur, l10, l01, l11 affineLanes
	for i := si.Lo; i < si.Hi; i++ {
		var abRow, acRow []mat.Score
		if i > 0 {
			abRow, acRow = st.ab.Row(i), st.ac.Row(i)
		}
		for j := sj.Lo; j < sj.Hi; j++ {
			tensorLanes(d, i, j, &cur)
			var p10, p01, p11 *affineLanes
			var sAB mat.Score
			var bcRow []mat.Score
			if i > 0 {
				tensorLanes(d, i-1, j, &l10)
				p10 = &l10
			}
			if j > 0 {
				tensorLanes(d, i, j-1, &l01)
				p01 = &l01
				bcRow = st.bc.Row(j)
			}
			if i > 0 && j > 0 {
				tensorLanes(d, i-1, j-1, &l11)
				p11 = &l11
				sAB = abRow[j]
			}
			lo := sk.Lo
			if i == 0 && j == 0 && lo == 0 {
				lo = 1 // the origin carries the boundary seed
			}
			f.lane(&cur, p10, p01, p11, sAB, acRow, bcRow, lo, sk.Hi)
		}
	}
}

// tensorLanes gathers the (i, j) lanes of the seven state lattices.
func tensorLanes(d *[7]*mat.Tensor3, i, j int, dst *affineLanes) {
	for s := range d {
		dst[s] = d[s].Lane(i, j)
	}
}

// AlignAffineParallel computes the same quasi-natural affine optimum as
// AlignAffine with the blocked-wavefront schedule over a goroutine pool —
// the paper's parallelization applied to the seven-state recurrence.
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
	if len(ca) == 0 && len(cb) == 0 && len(cc) == 0 {
		return &alignment.Alignment{Triple: tr, Moves: nil, Score: 0}, nil
	}
	n, m, p := len(ca), len(cb), len(cc)
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	f := newAffineFill(sch)
	var d [7]*mat.Tensor3
	for s := 0; s < 7; s++ {
		d[s] = mat.GetTensor3(n+1, m+1, p+1)
		defer mat.PutTensor3(d[s])
	}
	seedAffineOrigin(&d, alignment.MoveXXX) // the first column pays its opens

	// 28 bytes per cell: seven 4-byte lattices, one per affine gap state.
	ti, tj, tk := opt.tileDims(n+1, m+1, p+1, 28)
	si := wavefront.Partition(n+1, ti)
	sj := wavefront.Partition(m+1, tj)
	sk := wavefront.Partition(p+1, tk)
	if err := wavefront.Run3DContext(ctx, len(si), len(sj), len(sk), opt.workers(), func(bi, bj, bk int) {
		fillRangeAffine(&d, st, &f, si[bi], sj[bj], sk[bk])
	}); err != nil {
		return nil, err
	}

	moves, score, err := affineTraceback(d, ca, cb, cc, sch, 0)
	if err != nil {
		return nil, err
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves, Score: score}
	if err := aln.Validate(); err != nil {
		return nil, fmt.Errorf("core: parallel affine alignment invalid: %w", err)
	}
	return aln, nil
}
