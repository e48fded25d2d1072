package repro

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/alignment"
	"repro/internal/plan"
	"repro/internal/wavefront"
)

// WriteClustal writes an alignment in CLUSTAL-style text format.
func WriteClustal(w io.Writer, a *Alignment) error { return alignment.WriteClustal(w, a) }

// WriteAlignedFASTA writes the three gapped rows as FASTA records.
func WriteAlignedFASTA(w io.Writer, a *Alignment, width int) error {
	return alignment.WriteAlignedFASTA(w, a, width)
}

// ParseAlignedFASTA reads three equal-length gapped FASTA rows back into an
// Alignment. The score is not stored in the format; re-score with SPScore.
func ParseAlignedFASTA(r io.Reader, alpha *Alphabet) (*Alignment, error) {
	return alignment.ParseAlignedFASTA(r, alpha)
}

// BatchResult is the outcome of one triple in an AlignBatch call.
type BatchResult struct {
	Index  int
	Result *Result
	Err    error
}

// BatchItem pairs one triple with the Options that should align it. It is
// the unit of AlignBatchItemsContext, the heterogeneous batch entry point
// that serving layers use to coalesce concurrent requests — each carrying
// its own scheme, algorithm, and deadline — into one pool submission.
type BatchItem struct {
	Triple Triple
	Opt    Options
}

// AlignBatch aligns many triples concurrently — the throughput mode for
// screening workloads (e.g. ranking candidate third sequences against a
// reference pair). It is AlignBatchContext under context.Background().
func AlignBatch(triples []Triple, opt Options) []BatchResult {
	return AlignBatchContext(context.Background(), triples, opt)
}

// AlignBatchContext aligns many triples concurrently under a context.
// Inter- and intra-triple parallelism share the process-wide worker pool:
// min(opt.Workers, len(triples)) claimers — the caller plus helpers
// recruited from the pool — walk an atomic claim counter over the triples.
// When the batch is wide (at least as many triples as workers) each
// alignment runs single-threaded, the throughput-optimal split. When the
// batch is narrow (fewer triples than workers) the spare capacity flows
// into the alignments themselves: each inner Align keeps opt.Workers and
// its wavefront blocks recruit the idle pool workers, so a batch of two
// long triples on an eight-way pool no longer serializes each triple onto
// one core. Results are returned in input order; per-triple failures —
// including a panic inside one alignment, which is recovered with its
// stack — are reported in BatchResult.Err without aborting the batch.
// Cancelling ctx stops the batch after the in-flight alignments notice it;
// triples not yet started are marked with the context error.
//
// AlgorithmAuto resolves per triple against the effective scoring scheme:
// affine schemes get AlgorithmAffineParallel (AlgorithmAffineLinear over
// MaxBytes), linear ones AlgorithmParallel (AlgorithmParallelLinear), at
// one worker in a wide batch and at the item's workers in a narrow one —
// so a batch under BLOSUM62 optimizes the same affine objective a single
// Align call would.
func AlignBatchContext(ctx context.Context, triples []Triple, opt Options) []BatchResult {
	items := make([]BatchItem, len(triples))
	for i, tr := range triples {
		items[i] = BatchItem{Triple: tr, Opt: opt}
	}
	return AlignBatchItemsContext(ctx, items)
}

// AlignBatchItemsContext is AlignBatchContext for heterogeneous batches:
// every item carries its own Options, so triples with different schemes,
// algorithms, deadlines, or fallback policies can share one batch
// submission. The worker budget of the batch is the largest per-item
// request (each non-positive Workers counts as GOMAXPROCS); the
// wide/narrow split and the pool arbitration are as in AlignBatchContext.
// Claimers pick items in planned-work order (largest estimated lattice
// first, per the execution planner) rather than submission order, which
// shortens the batch makespan; results are still returned in input order.
func AlignBatchItemsContext(ctx context.Context, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	for i := range out {
		out[i].Index = i
	}
	if len(items) == 0 {
		return out
	}
	workers := 1
	for _, it := range items {
		if w := wavefront.Workers(it.Opt.Workers); w > workers {
			workers = w
		}
	}
	claimers := workers
	if claimers > len(items) {
		claimers = len(items)
	}
	// A narrow batch leaves workers idle under a triple-per-worker split;
	// route the spare capacity into each alignment instead.
	intraParallel := claimers < workers
	// Claim in planned-work order, largest first: the biggest lattices
	// start while every claimer is alive, so the batch's makespan is not
	// hostage to a huge triple that submission order left for last.
	order := planOrder(items, intraParallel)
	var next atomic.Int64
	claim := func() {
		for {
			oi := int(next.Add(1)) - 1
			if oi >= len(order) {
				return
			}
			i := order[oi]
			if err := ctx.Err(); err != nil {
				out[i].Err = fmt.Errorf("repro: batch cancelled: %w", err)
				continue // claim and mark the remaining triples too
			}
			res, err := alignRecover(ctx, items[i].Triple, itemOptions(items[i], intraParallel))
			out[i] = BatchResult{Index: i, Result: res, Err: err}
		}
	}
	// The caller is always a claimer; the rest come from the shared pool.
	// A saturated pool is not an error — the batch proceeds with fewer
	// claimers (down to the caller alone) and the same results.
	wavefront.GrowPool(workers)
	var wg sync.WaitGroup
	for g := 1; g < claimers; g++ {
		wg.Add(1)
		if !wavefront.TryGo(func() { defer wg.Done(); claim() }) {
			wg.Done()
			break
		}
	}
	claim()
	wg.Wait()
	return out
}

// itemOptions is the Options one batch item runs with: a wide batch runs
// each alignment on one worker, a narrow one keeps the item's own.
func itemOptions(it BatchItem, intraParallel bool) Options {
	opt := it.Opt
	if !intraParallel {
		opt.Workers = 1
	}
	return opt
}

// planOrder returns the claim order for a batch: item indexes sorted by
// planned DP cell count, largest first (stable, so equal-work items keep
// submission order). Each item is planned at the workers it will run with.
// Unplannable items — invalid triple, unknown scheme or algorithm, budget
// too small — count as zero work and sort last; their error surfaces when
// the claimer aligns them.
func planOrder(items []BatchItem, intraParallel bool) []int {
	keys := make([]uint64, len(items))
	for i := range items {
		keys[i] = planCells(items[i].Triple, itemOptions(items[i], intraParallel))
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	return order
}

// planCells estimates one item's DP work for batch ordering.
func planCells(tr Triple, opt Options) uint64 {
	if tr.Validate() != nil {
		return 0
	}
	sch, err := resolveScheme(tr, opt)
	if err != nil {
		return 0
	}
	pl, _, err := plan.Resolve(planRequest(tr, sch, opt))
	if err != nil {
		return 0
	}
	return pl.EstCells
}

// alignRecover is one batch claimer's alignWith call with panic
// containment: a panic inside one alignment becomes that triple's error
// (with the worker stack) instead of crashing the whole batch.
func alignRecover(ctx context.Context, tr Triple, opt Options) (res *Result, err error) {
	defer recoverAlignPanic(&res, &err)
	return alignWith(ctx, tr, opt)
}

// recoverAlignPanic converts an in-flight panic into an error carrying the
// panic value and the worker's stack. Must be invoked via defer.
func recoverAlignPanic(res **Result, err *error) {
	if r := recover(); r != nil {
		*res = nil
		*err = fmt.Errorf("repro: alignment panicked: %v\n%s", r, debug.Stack())
	}
}
