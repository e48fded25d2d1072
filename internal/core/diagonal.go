package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// AlignDiagonal computes the same optimum as AlignParallel with the
// plane-synchronized wavefront: all cells on the anti-diagonal plane
// i+j+k = d are independent given planes d-1, d-2, d-3, so each plane is
// split across the worker pool and a barrier separates consecutive planes.
//
// This is the classic cell-level wavefront formulation. Compared to the
// blocked schedule of AlignParallel it needs one barrier per plane
// (n+m+p+1 of them) and touches memory in scattered order, which is
// exactly the overhead the paper's blocked design removes; the F6
// experiment quantifies the difference.
func AlignDiagonal(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options) (*alignment.Alignment, error) {
	ca, cb, cc, err := prepare(tr, sch)
	if err != nil {
		return nil, err
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if FullMatrixBytes(tr) > opt.maxBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, cap %d", ErrTooLarge, FullMatrixBytes(tr), opt.maxBytes())
	}
	n, m, p := len(ca), len(cb), len(cc)
	st := newScoreTables(ca, cb, cc, sch)
	defer st.release()
	t := mat.GetTensor3(n+1, m+1, p+1)
	defer mat.PutTensor3(t)
	ge2 := 2 * sch.GapExtend()
	workers := opt.workers()

	for d := 0; d <= n+m+p; d++ {
		// The plane barrier is the natural cancellation point: between
		// planes no worker goroutine is in flight.
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		iLo := d - m - p
		if iLo < 0 {
			iLo = 0
		}
		iHi := d
		if iHi > n {
			iHi = n
		}
		if iLo > iHi {
			continue
		}
		rows := iHi - iLo + 1
		w := workers
		if w > rows {
			w = rows
		}
		if w <= 1 {
			diagonalRows(t, st, ge2, d, iLo, iHi, m, p)
			continue
		}
		var wg sync.WaitGroup
		wg.Add(w)
		per := (rows + w - 1) / w
		for g := 0; g < w; g++ {
			lo := iLo + g*per
			hi := lo + per - 1
			if hi > iHi {
				hi = iHi
			}
			go func(lo, hi int) {
				defer wg.Done()
				if lo <= hi {
					diagonalRows(t, st, ge2, d, lo, hi, m, p)
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	moves, err := tracebackTensor(t, ca, cb, cc, sch)
	if err != nil {
		return nil, err
	}
	return &alignment.Alignment{Triple: tr, Moves: moves, Score: t.At(n, m, p)}, nil
}

// diagonalRows computes the cells of plane d whose first index lies in
// [iLo, iHi]. Interior cells (all three indices positive) take the
// branch-free table-driven path; the O(surface) boundary cells keep the
// guarded form.
func diagonalRows(t *mat.Tensor3, st *scoreTables, ge2 mat.Score, d, iLo, iHi, m, p int) {
	for i := iLo; i <= iHi; i++ {
		jLo := d - i - p
		if jLo < 0 {
			jLo = 0
		}
		jHi := d - i
		if jHi > m {
			jHi = m
		}
		if i == 0 {
			diagonalBoundary(t, st, ge2, 0, d, jLo, jHi)
			continue
		}
		abRow := st.ab.Row(i)
		acRow := st.ac.Row(i)
		j := jLo
		if j == 0 {
			diagonalBoundary(t, st, ge2, i, d, 0, 0)
			j = 1
		}
		// k = d-i-j decreases as j grows; the last j may hit k == 0.
		for ; j <= jHi; j++ {
			k := d - i - j
			if k == 0 {
				diagonalBoundary(t, st, ge2, i, d, j, j)
				continue
			}
			sAB := abRow[j]
			sac := acRow[k]
			sbc := st.bc.Row(j)[k]
			lane11 := t.Lane(i-1, j-1)
			lane10 := t.Lane(i-1, j)
			lane01 := t.Lane(i, j-1)
			cur := t.Lane(i, j)
			cur[k] = max(
				lane11[k-1]+sAB+sac+sbc, // XXX
				lane11[k]+sAB+ge2,       // XXG
				lane10[k-1]+sac+ge2,     // XGX
				lane01[k-1]+sbc+ge2,     // GXX
				lane10[k]+ge2,           // XGG
				lane01[k]+ge2,           // GXG
				cur[k-1]+ge2,            // GGX
			)
		}
	}
}

// diagonalBoundary computes the cells of plane d in row i whose j index
// lies in [jLo, jHi], tolerating zero indices on any axis.
func diagonalBoundary(t *mat.Tensor3, st *scoreTables, ge2 mat.Score, i, d, jLo, jHi int) {
	for j := jLo; j <= jHi; j++ {
		k := d - i - j
		if i == 0 && j == 0 && k == 0 {
			t.Set(0, 0, 0, 0)
			continue
		}
		best := mat.NegInf
		if i > 0 && j > 0 && k > 0 {
			if v := t.At(i-1, j-1, k-1) + st.ab.At(i, j) + st.ac.At(i, k) + st.bc.At(j, k); v > best {
				best = v
			}
		}
		if i > 0 && j > 0 {
			if v := t.At(i-1, j-1, k) + st.ab.At(i, j) + ge2; v > best {
				best = v
			}
		}
		if i > 0 && k > 0 {
			if v := t.At(i-1, j, k-1) + st.ac.At(i, k) + ge2; v > best {
				best = v
			}
		}
		if j > 0 && k > 0 {
			if v := t.At(i, j-1, k-1) + st.bc.At(j, k) + ge2; v > best {
				best = v
			}
		}
		if i > 0 {
			if v := t.At(i-1, j, k) + ge2; v > best {
				best = v
			}
		}
		if j > 0 {
			if v := t.At(i, j-1, k) + ge2; v > best {
				best = v
			}
		}
		if k > 0 {
			if v := t.At(i, j, k-1) + ge2; v > best {
				best = v
			}
		}
		t.Set(i, j, k, best)
	}
}
