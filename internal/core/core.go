// Package core implements exact optimal three-sequence alignment — the
// primary contribution of the reproduced paper — as a family of algorithms
// over the same objective. Each exact kernel exists once per gap model and
// space class; its parallelism is Options.Workers, and Workers: 1 is the
// sequential fill.
//
//   - AlignParallel: the paper's algorithm. The 3D lattice is tiled into
//     blocks evaluated in wavefront order by a goroutine pool; blocks on an
//     anti-diagonal plane are independent. O(n·m·p) time and space, on the
//     lane-packed k-lane interior.
//   - AlignParallelLinear: 3D Hirschberg divide-and-conquer; O(n·m·p) time
//     with only O(m·p) working memory, which is what makes long sequences
//     feasible. Every plane sweep runs a 2D blocked wavefront, and
//     independent sub-problems are solved concurrently.
//   - AlignBounded and AlignAStar: Carrillo–Lipman bounded search over the
//     admissible band (or the A* frontier) derived from pairwise
//     projection bounds; memory scales with the cells the bound admits.
//   - AlignAffineParallel and AlignAffineLinear: the 7-state
//     generalization of Gotoh's algorithm with quasi-natural affine gap
//     costs, over seven full lattices or in linear space.
//   - AlignDiagonal: the plane-synchronized cell-level wavefront, kept as
//     the ablation the blocked schedule is measured against.
//
// All algorithms maximize the linear-gap sum-of-pairs objective defined by
// a scoring.Scheme (the affine kernels maximize the affine variant) and
// return identical optimal scores.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/faultpoint"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// fpFill is the kernel-interior fault point, checked once per block fill
// (never per cell — the interior loops stay branch-free). A fired hit
// panics inside the block function, which is exactly the fault the
// wavefront scheduler's panic containment and the batch layer's per-item
// recovery exist to absorb.
var fpFill = faultpoint.New("core.fill.block")

// Options tunes the algorithms. The zero value is ready to use.
type Options struct {
	// Workers is the goroutine pool size for the parallel algorithms;
	// non-positive means GOMAXPROCS.
	Workers int
	// BlockSize is the tile edge length for blocked wavefront execution;
	// non-positive means DefaultBlockSize.
	BlockSize int
	// MaxBytes caps the score-lattice allocation; non-positive means
	// DefaultMaxBytes. Algorithms return ErrTooLarge instead of attempting
	// a larger allocation.
	MaxBytes int64
	// TileDims, when all three edges are positive, pins the blocked-
	// wavefront tile shape exactly — the hook the execution planner
	// (internal/plan) uses to hand a pre-negotiated shape to the kernel.
	// It outranks BlockSize; the zero value defers to BlockSize or the
	// adaptive heuristic.
	TileDims [3]int
	// CellWidth selects the lattice cell storage width in bits for the
	// width-aware kernel (AlignParallel): 16 requests an int16 lattice,
	// 0 or 32 the default int32. The kernel re-verifies the request with
	// the Int16Safe bound and keeps int32 silently when the narrow width
	// could overflow, so a stale or hostile value can cost bandwidth but
	// never correctness.
	CellWidth int
}

// DefaultBlockSize is the tile edge used when Options.BlockSize is unset.
// 16³ cells keep a block's working set inside L1 while leaving enough
// blocks per anti-diagonal to feed the pool (the F3 experiment sweeps this
// choice).
const DefaultBlockSize = 16

// DefaultMaxBytes is the default lattice allocation cap (4 GiB).
const DefaultMaxBytes int64 = 4 << 30

// ErrTooLarge is returned when an algorithm would exceed Options.MaxBytes.
var ErrTooLarge = errors.New("core: score lattice exceeds memory cap")

// checkCtx translates a done context into the error every kernel returns at
// its cancellation points. Sequential kernels poll it at plane boundaries;
// parallel kernels inherit the per-block polling of the wavefront
// scheduler.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: alignment cancelled: %w", err)
	}
	return nil
}

func (o Options) workers() int { return wavefront.Workers(o.Workers) }

func (o Options) maxBytes() int64 {
	if o.MaxBytes <= 0 {
		return DefaultMaxBytes
	}
	return o.MaxBytes
}

// FullMatrixBytes reports the 32-bit lattice allocation AlignParallel
// performs for the given triple; the T2 experiment tabulates it against
// LinearBytes.
func FullMatrixBytes(tr seq.Triple) int64 {
	return mat.Tensor3Bytes(tr.A.Len()+1, tr.B.Len()+1, tr.C.Len()+1)
}

// LinearBytes reports the peak lattice allocation of AlignParallelLinear:
// two (m+1)×(p+1) planes for each of the forward and backward sweeps.
func LinearBytes(tr seq.Triple) int64 {
	return 4 * mat.PlaneBytes(tr.B.Len()+1, tr.C.Len()+1)
}

// colXXX is the sum-of-pairs contribution of a column consuming residues in
// all three sequences.
func colXXX(sch *scoring.Scheme, ai, bj, ck int8) mat.Score {
	return sch.Sub(ai, bj) + sch.Sub(ai, ck) + sch.Sub(bj, ck)
}

// fillBoundaryI0 fills the i == 0 plane portion of the box: only the moves
// that leave A untouched (GXX, GXG, GGX) apply.
func fillBoundaryI0[T mat.Cell](t *mat.Tensor3Of[T], st *scoreTablesOf[T], ge2 T, sj, sk wavefront.Span) {
	for j := sj.Lo; j < sj.Hi; j++ {
		cur := t.Lane(0, j)
		if j == 0 {
			k := sk.Lo
			if k == 0 {
				cur[0] = 0
				k = 1
			}
			for ; k < sk.Hi; k++ {
				cur[k] = cur[k-1] + ge2 // GGX chain from the origin
			}
			continue
		}
		prev := t.Lane(0, j-1)
		bcRow := st.bc.Row(j)
		k := sk.Lo
		if k == 0 {
			cur[0] = prev[0] + ge2 // GXG
			k = 1
		}
		for ; k < sk.Hi; k++ {
			cur[k] = max(prev[k-1]+bcRow[k], prev[k], cur[k-1]) + ge2
		}
	}
}

// fillBoundaryJ0 fills the j == 0 row of plane i ≥ 1: only the B-gapped
// moves XGX, XGG, GGX apply.
func fillBoundaryJ0[T mat.Cell](t *mat.Tensor3Of[T], ge2 T, i int, acRow []T, sk wavefront.Span) {
	cur := t.Lane(i, 0)
	prev := t.Lane(i-1, 0)
	k := sk.Lo
	if k == 0 {
		cur[0] = prev[0] + ge2 // XGG
		k = 1
	}
	for ; k < sk.Hi; k++ {
		cur[k] = max(prev[k-1]+acRow[k], prev[k], cur[k-1]) + ge2
	}
}

// tracebackTensor recovers one optimal move sequence from a filled lattice
// by re-evaluating which predecessor produced each cell's value. The
// re-evaluation runs at the lattice's own cell width; every sum it compares
// is a candidate the fill already computed, so the width-safety bound that
// admitted the lattice covers the traceback too.
func tracebackTensor[T mat.Cell](t *mat.Tensor3Of[T], ca, cb, cc []int8, sch *scoring.Scheme) ([]alignment.Move, error) {
	ge2 := T(2 * sch.GapExtend())
	i, j, k := len(ca), len(cb), len(cc)
	moves := make([]alignment.Move, 0, i+j+k)
	for i > 0 || j > 0 || k > 0 {
		v := t.At(i, j, k)
		switch {
		case i > 0 && j > 0 && k > 0 &&
			v == t.At(i-1, j-1, k-1)+T(colXXX(sch, ca[i-1], cb[j-1], cc[k-1])):
			moves = append(moves, alignment.MoveXXX)
			i, j, k = i-1, j-1, k-1
		case i > 0 && j > 0 && v == t.At(i-1, j-1, k)+T(sch.Sub(ca[i-1], cb[j-1]))+ge2:
			moves = append(moves, alignment.MoveXXG)
			i, j = i-1, j-1
		case i > 0 && k > 0 && v == t.At(i-1, j, k-1)+T(sch.Sub(ca[i-1], cc[k-1]))+ge2:
			moves = append(moves, alignment.MoveXGX)
			i, k = i-1, k-1
		case j > 0 && k > 0 && v == t.At(i, j-1, k-1)+T(sch.Sub(cb[j-1], cc[k-1]))+ge2:
			moves = append(moves, alignment.MoveGXX)
			j, k = j-1, k-1
		case i > 0 && v == t.At(i-1, j, k)+ge2:
			moves = append(moves, alignment.MoveXGG)
			i--
		case j > 0 && v == t.At(i, j-1, k)+ge2:
			moves = append(moves, alignment.MoveGXG)
			j--
		case k > 0 && v == t.At(i, j, k-1)+ge2:
			moves = append(moves, alignment.MoveGGX)
			k--
		default:
			return nil, fmt.Errorf("core: traceback stuck at (%d,%d,%d)", i, j, k)
		}
	}
	reverseMoves(moves)
	return moves, nil
}

func reverseMoves(m []alignment.Move) {
	for l, r := 0, len(m)-1; l < r; l, r = l+1, r-1 {
		m[l], m[r] = m[r], m[l]
	}
}

func prepare(tr seq.Triple, sch *scoring.Scheme) (ca, cb, cc []int8, err error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if sch == nil {
		return nil, nil, nil, fmt.Errorf("core: nil scoring scheme")
	}
	if sch.Alphabet() != tr.A.Alphabet() {
		return nil, nil, nil, fmt.Errorf("core: scheme alphabet %q does not match sequences (%q)",
			sch.Alphabet().Name(), tr.A.Alphabet().Name())
	}
	return tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), nil
}

// latticeNeed is the width-aware admission size of the full lattice.
func latticeNeed[T mat.Cell](ca, cb, cc []int8) int64 {
	return int64(mat.CellBytes[T]()) * int64(len(ca)+1) * int64(len(cb)+1) * int64(len(cc)+1)
}

// AlignParallel computes an optimal alignment with the blocked wavefront
// schedule over a goroutine pool — the paper's parallel algorithm — with
// every tile filled by the lane-packed interior (see packed.go): an AVX2
// max-plus scan where the host has it, unrolled bounds-check-free windows
// elsewhere. Options.Workers is its only parallelism knob; at Workers: 1
// the tiles run in order on the caller, which is the sequential fill. The
// full lattice is retained, so traceback is exact. Cancellation is checked
// per block by the wavefront scheduler. When Options.CellWidth asks for —
// and the Int16Safe bound admits — a 16-bit lattice, the fill runs over
// int16 cells at half the memory traffic and produces bit-identical
// scores.
func AlignParallel(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, err
	}
	if useInt16(opt, sch, ca, cb, cc) {
		return alignParallelOf[int16](ctx, tr, ca, cb, cc, sch, opt)
	}
	return alignParallelOf[mat.Score](ctx, tr, ca, cb, cc, sch, opt)
}

func alignParallelOf[T mat.Cell](ctx context.Context, tr seq.Triple, ca, cb, cc []int8, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if need := latticeNeed[T](ca, cb, cc); need > opt.maxBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, need, opt.maxBytes())
	}
	st := newScoreTablesOf[T](ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3Of[T](len(ca)+1, len(cb)+1, len(cc)+1)
	defer mat.PutTensor3Of(t)
	ge2 := T(2 * sch.GapExtend())
	var lv laneVec
	initLaneVec(&lv, ca, cb, cc, sch, ge2)
	ti, tj, tk := opt.tileDims(len(ca)+1, len(cb)+1, len(cc)+1, mat.CellBytes[T]())
	si := wavefront.Partition(len(ca)+1, ti)
	sj := wavefront.Partition(len(cb)+1, tj)
	sk := wavefront.Partition(len(cc)+1, tk)
	if err := wavefront.Run3DContext(ctx, len(si), len(sj), len(sk), opt.workers(), func(bi, bj, bk int) {
		// Each tile works on a private copy: the argument blocks inside
		// laneVec are scratch state, and tiles run on concurrent workers.
		tileLV := lv
		fillRangePacked(t, st, ge2, si[bi], sj[bj], sk[bk], &tileLV)
	}); err != nil {
		return nil, err
	}
	moves, err := tracebackTensor(t, ca, cb, cc, sch)
	if err != nil {
		return nil, err
	}
	return &alignment.Alignment{Triple: tr, Moves: moves, Score: mat.Score(t.At(len(ca), len(cb), len(cc)))}, nil
}
