// Package wavefront schedules blocked wavefront computations over 2D and 3D
// grids using a locality-aware work-stealing scheduler backed by a shared,
// process-wide worker pool.
//
// A dynamic program whose cell (i, j, k) depends on its lexicographic
// predecessors can be tiled into rectangular blocks; block (bi, bj, bk) may
// run once its three axis predecessors (bi-1, bj, bk), (bi, bj-1, bk), and
// (bi, bj, bk-1) have completed. Axis predecessors transitively dominate
// the face- and corner-diagonal predecessors — for example
// (bi-1, bj-1, bk) is itself an axis predecessor of (bi-1, bj, bk) — so
// counting only the (up to three) axis dependencies is sufficient for all
// seven cell-level dependency directions. Blocks on the same anti-diagonal
// plane bi+bj+bk = d are mutually independent, which is exactly the
// parallelism the paper exploits.
//
// Scheduling is work-stealing with a locality bias rather than a central
// queue: every participant owns a deque of ready blocks (LIFO for the
// owner, FIFO for thieves), and a worker that completes a block keeps the
// first successor it unlocks — preferring the k-successor, whose
// predecessor face the worker just wrote — so the tensor slab it touched
// stays cache-hot. Workers steal only when their own deque runs dry.
// Helpers come from one persistent, lazily-grown, process-wide pool
// (GrowPool/TryGo), so repeated runs pay no goroutine startup and outer
// parallelism (for example, a batch of alignments) and inner block
// parallelism share a single capacity. Per-run scheduler memory is
// O(workers + frontier): ready blocks live in the deques and pending
// predecessor counts in a sharded map that only tracks the frontier.
//
// The schedule is non-deterministic but the computed values are not,
// because every read a block performs is of cells written by blocks that
// happened-before it (the deque and shard mutexes establish the ordering).
//
// Run2DContext and Run3DContext add two robustness guarantees on top of
// the plain runners: cooperative cancellation (workers stop claiming
// blocks once the context is done and the run drains without leaking
// goroutines — pool helpers return to the pool) and panic containment (a
// panic inside fn cancels the run and is returned as a *PanicError instead
// of crashing the process).
package wavefront

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Span is a half-open index interval [Lo, Hi) covering one block edge.
type Span struct{ Lo, Hi int }

// Len returns the number of indices in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Partition splits [0, n) into consecutive spans of at most blockSize
// indices. It panics if n is negative or blockSize is not positive.
// Partition(0, b) returns nil.
func Partition(n, blockSize int) []Span {
	if n < 0 {
		panic(fmt.Sprintf("wavefront: Partition length %d", n))
	}
	if blockSize <= 0 {
		panic(fmt.Sprintf("wavefront: Partition block size %d", blockSize))
	}
	spans := make([]Span, 0, (n+blockSize-1)/blockSize)
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		spans = append(spans, Span{lo, hi})
	}
	return spans
}

// Workers clamps a requested worker count to a sane value: non-positive
// requests become runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// PanicError is returned by the context-aware runners when fn panicked in
// a worker. Value is the recovered panic value and Stack the worker's stack
// at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("wavefront: panic in block function: %v\n%s", e.Value, e.Stack)
}

// Run3D executes fn for every block of an nbi×nbj×nbk grid in wavefront
// order using the given number of workers (clamped by Workers). fn must
// only read cells produced by predecessor blocks; the scheduler guarantees
// those writes are visible. Run3D returns when every block has completed.
// A panic inside fn is re-raised on the calling goroutine as a *PanicError.
func Run3D(nbi, nbj, nbk, workers int, fn func(bi, bj, bk int)) {
	if err := Run3DContext(context.Background(), nbi, nbj, nbk, workers, fn); err != nil {
		// A background context never cancels, so the only possible errors
		// are a contained panic and a watchdog stall; surface them where
		// the caller can recover them.
		panic(err)
	}
}

// Run3DContext is Run3D with cooperative cancellation, panic containment,
// and a stall watchdog. Up to workers-1 helpers are recruited from the
// shared pool (when the pool is saturated the run proceeds with fewer,
// down to the sequential fill). Workers check the context before claiming
// each block; when it is cancelled the run drains (in-flight blocks
// finish, ready ones are abandoned) and the wrapped context error is
// returned. A panic inside fn cancels the remaining schedule and is
// returned as a *PanicError. A multi-worker run that retires no block for
// a whole stall budget (SetStallBudget, clamped to the context deadline)
// is cancelled and returned as a *StallError matching ErrStalled; healthy
// workers detach on the cancel, while a truly wedged one is abandoned
// mid-block rather than hanging the caller. On every other path all
// helpers have detached from the run by the time Run3DContext returns.
func Run3DContext(ctx context.Context, nbi, nbj, nbk, workers int, fn func(bi, bj, bk int)) error {
	total := nbi * nbj * nbk
	if total <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > total {
		workers = total
	}
	if workers > 1 {
		ran, err := runSteal(ctx, nbi, nbj, nbk, workers, fn)
		if err != nil {
			return err
		}
		if ran {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("wavefront: run cancelled: %w", err)
			}
			return nil
		}
		// No helper was free: fall through to the sequential fill, which
		// offers the same per-block cancellation granularity.
	}
	return runSequential(ctx, nbi, nbj, nbk, fn)
}

// runSequential fills the grid in plain lexicographic order, which
// satisfies all dependencies with no synchronization. The context is
// polled per block, the same granularity the pooled path offers.
func runSequential(ctx context.Context, nbi, nbj, nbk int, fn func(bi, bj, bk int)) error {
	for bi := 0; bi < nbi; bi++ {
		for bj := 0; bj < nbj; bj++ {
			for bk := 0; bk < nbk; bk++ {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("wavefront: run cancelled: %w", err)
				}
				if pe := safeRun(fn, bi, bj, bk); pe != nil {
					return pe
				}
			}
		}
	}
	return nil
}

// Run2DContext executes fn for every block of an nbi×nbj grid in
// wavefront order, with the contract of Run3DContext.
func Run2DContext(ctx context.Context, nbi, nbj, workers int, fn func(bi, bj int)) error {
	return Run3DContext(ctx, nbi, nbj, 1, workers, func(bi, bj, _ int) { fn(bi, bj) })
}

// IsPanic reports whether err carries a contained worker panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

func safeRun(fn func(bi, bj, bk int), bi, bj, bk int) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn(bi, bj, bk)
	return nil
}
