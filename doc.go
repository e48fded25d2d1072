// Package repro is an open-source reproduction of "Efficient Parallel
// Algorithm for Optimal Three-Sequences Alignment" (Lin, Huang, Chung,
// Tang; ICPP 2007): exact, optimal alignment of three biological sequences
// under the sum-of-pairs objective, parallelized with a blocked-wavefront
// schedule over goroutines, with a linear-space divide-and-conquer variant
// for long sequences and Carrillo–Lipman bounded search.
//
// This package is the public facade. The one-call entry point:
//
//	tr, _ := repro.ReadTripleFASTA(f, repro.DNA)
//	res, err := repro.Align(tr, repro.Options{})
//	fmt.Println(res.Alignment)
//
// Pick an algorithm and tune parallelism through Options:
//
//	res, err := repro.Align(tr, repro.Options{
//	    Algorithm: repro.AlgorithmParallel,
//	    Workers:   8,
//	    BlockSize: 16,
//	})
//
// # Cancellation and deadlines
//
// AlignContext and AlignBatchContext are the context-aware entry points;
// Align and AlignBatch are the same calls under context.Background().
// Cancelling the context stops every kernel cooperatively: sequential
// kernels poll at plane boundaries, parallel kernels per wavefront block,
// and the worker pool drains without leaking goroutines. The returned
// error wraps context.Canceled or context.DeadlineExceeded — test with
// errors.Is:
//
//	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
//	defer cancel()
//	res, err := repro.AlignContext(ctx, tr, repro.Options{})
//	if errors.Is(err, context.DeadlineExceeded) { ... }
//
// Options.Deadline bounds a single call without plumbing a context, and
// Options.Fallback turns budget exhaustion into graceful degradation: when
// an exact algorithm is stopped by the deadline or rejected by the
// MaxBytes admission check, the triple is re-aligned with the
// center-star-refined heuristic and the Result is marked Degraded, with
// DegradedCause holding the original error. Degraded scores are lower
// bounds on the optimum, not the optimum.
//
// For screening workloads the two budgets are complementary: MaxBytes
// rejects oversized inputs instantly (before any allocation), while
// Deadline catches inputs that fit in memory but compute too slowly. The
// typed sentinel ErrTooLarge identifies MaxBytes rejections.
//
// # Planning
//
// Algorithm selection is an explicit, inspectable step. Every kernel
// registers a self-describing spec in internal/plan, and the planner maps
// the triple's shape, the scoring scheme, and Options to an ExecutionPlan
// — kernel, workers, tile shape, estimated cells, bytes, and duration —
// before any lattice is allocated. Every successful Result carries the
// plan that drove it as Result.Plan, and PlanAlign returns the plan
// without aligning (the CLI's align3 -explain, the server's POST
// /v1/plan).
//
// Options.MaxMemoryBytes is a soft budget the planner satisfies by
// downgrading — full lattice to linear space to, as a last resort, the
// center-star-refined heuristic — recording each step in Plan.Downgrades
// as a {from, to, est_bytes, budget_bytes, forced} record.
// Linear-space downgrades keep the score optimal; only the heuristic last
// resort marks the Result Degraded (with an ErrTooLarge cause). MaxBytes
// stays the hard cap: an explicitly requested kernel over it fails with
// ErrTooLarge rather than being swapped.
//
// # Performance
//
// Every kernel precomputes the three pairwise substitution-score planes
// before filling the lattice, trading O(nm + np + mp) extra memory for an
// interior loop of plain array reads — negligible next to the O(nmp)
// lattice itself, and not counted against Options.MaxBytes. Scratch
// buffers (score rows, planes, tensors) are recycled through a size-classed
// arena in internal/mat; recycled buffers are returned dirty, so kernels
// seed every boundary cell explicitly rather than relying on zeroed
// memory. See the README's Performance section for measured numbers and
// the BENCH_<rev>.json regression harness.
//
// Lattice cell width is negotiated, never assumed. Scores and the public
// Alignment type are always int32, but the linear-gap kernels store the
// lattice itself in int16 cells when the planner proves every cell fits:
// total sequence length times the scheme's per-column score bound must
// stay within int16, checked with overflow-proof arithmetic. The chosen
// width is reported as Plan.CellWidthBits (16 or 32). The width is a
// hint with a one-sided failure mode: kernels re-verify the bound at
// dispatch and silently run 32-bit cells when it does not hold, so a
// stale plan can cost memory bandwidth but can never truncate a score.
// The full-lattice linear-gap kernel (AlgorithmParallel, the Auto default
// for linear-gap schemes, at any worker count) additionally vectorizes the
// interior loop along the unit-stride axis; the differential tests pin it
// bit-identical to a verbatim scalar recurrence.
//
// The underlying algorithm implementations live in internal/core; sequence
// and scoring substrates in internal/seq and internal/scoring; heuristic
// baselines in internal/msa. DESIGN.md maps every subsystem, and
// bench_test.go regenerates every table and figure of the evaluation.
package repro
