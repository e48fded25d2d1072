package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/plan"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// Re-exported substrate types. The aliases make the internal implementation
// types usable through the public facade.
type (
	// Sequence is a named, validated residue string over a fixed alphabet.
	Sequence = seq.Sequence
	// Alphabet is a residue alphabet (DNA, RNA, Protein, or custom).
	Alphabet = seq.Alphabet
	// Triple bundles the three sequences of a three-way alignment.
	Triple = seq.Triple
	// Scheme is a substitution-plus-gap scoring scheme.
	Scheme = scoring.Scheme
	// Alignment is a scored three-row alignment.
	Alignment = alignment.Alignment
	// AlignmentStats summarizes alignment conservation.
	AlignmentStats = alignment.Stats
	// PruneStats reports Carrillo–Lipman pruning effectiveness.
	PruneStats = core.PruneStats
	// MutationModel controls the synthetic-workload generator.
	MutationModel = seq.MutationModel
	// Generator produces deterministic synthetic sequences.
	Generator = seq.Generator
	// Plan is the execution plan the memory-aware planner resolves for a
	// request: the kernel that will run, its tile shape and worker count,
	// and the predicted cells, bytes, and duration. Every successful Result
	// carries the plan that produced it, and PlanAlign returns one without
	// aligning.
	Plan = plan.ExecutionPlan
	// TripleSketch is a per-sequence k-mer sketch of a triple (see
	// SketchTriple). alignd no longer computes one; it is kept only for
	// the benchmark's traced layers (probe.sketch_us, cache.nearest_us).
	TripleSketch = seq.TripleSketch
)

// Standard alphabets.
var (
	DNA     = seq.DNA
	RNA     = seq.RNA
	Protein = seq.Protein
)

// ErrTooLarge is returned when an alignment would exceed Options.MaxBytes.
var ErrTooLarge = core.ErrTooLarge

// ErrStalled is returned (wrapped in a *wavefront.StallError) when the
// scheduler's watchdog cancelled a parallel run because no wavefront block
// was retired within the stall budget — a wedged worker, not a slow one.
// Check with errors.Is; callers that want the completed/total block counts
// can errors.As into *StallError.
var ErrStalled = wavefront.ErrStalled

// StallError is the concrete error behind ErrStalled; see
// wavefront.StallError.
type StallError = wavefront.StallError

// Algorithm selects the alignment strategy.
type Algorithm string

// The available algorithms. Every linear-gap kernel through AlgorithmAStar
// is exact (identical optimal linear-gap SP scores); the affine kernels are
// exact under the affine objective; the last three are fast heuristics.
// The exact kernels take their parallelism from Options.Workers: set 1 for
// one thread. Nine names are aliases kept so existing callers still
// parse: they run, and Result.Algorithm and Result.Plan report, the kernel
// they alias.
const (
	// AlgorithmAuto matches the scheme's gap model: AlgorithmParallel for
	// linear gaps or AlgorithmAffineParallel for affine schemes, falling
	// back to the corresponding linear-space variant when the lattice
	// would exceed MaxBytes. A linear-gap triple at least plan.MinBoundedLen
	// long in every dimension starts on the Carrillo–Lipman band
	// (AlgorithmBounded) and keeps it only when the band, counted exactly
	// before it is allocated, is cheaper than that dense kernel;
	// Result.Algorithm and Result.Plan name the kernel that ran.
	AlgorithmAuto Algorithm = ""
	// AlgorithmFull is an alias of AlgorithmParallel, which honours
	// Workers; set 1 for one thread (the sequential full-matrix fill).
	AlgorithmFull Algorithm = "full"
	// AlgorithmFullPacked is an alias of AlgorithmParallel, whose interior
	// it names.
	AlgorithmFullPacked Algorithm = "full-packed"
	// AlgorithmParallel is the paper's blocked-wavefront algorithm over the
	// full 3D lattice. Options.Workers sets its parallelism, and one worker
	// is the sequential fill. The innermost k-lane of every tile runs a
	// vectorized two-pass max-plus scan (AVX2 where available, unrolled
	// bounds-check-free Go elsewhere) and honors the planner's negotiated
	// 16-bit cell width.
	AlgorithmParallel Algorithm = "parallel"
	// AlgorithmParallelPacked is an alias of AlgorithmParallel.
	AlgorithmParallelPacked Algorithm = "parallel-packed"
	// AlgorithmLinear is an alias of AlgorithmParallelLinear, which honours
	// Workers; set 1 for one thread.
	AlgorithmLinear Algorithm = "linear"
	// AlgorithmParallelLinear is the linear-space divide-and-conquer. Above
	// one worker its plane sweeps run blocked wavefronts and independent
	// sub-problems run concurrently.
	AlgorithmParallelLinear Algorithm = "parallel-linear"
	// AlgorithmDiagonal is an alias of AlgorithmParallel. The
	// plane-synchronized (anti-diagonal) wavefront it used to name is the
	// ablation the blocked schedule is measured against, and no longer a
	// serving kernel.
	AlgorithmDiagonal Algorithm = "diagonal"
	// AlgorithmPruned is an alias of AlgorithmBounded: Carrillo–Lipman
	// pruning with the center-star-refined score as the lower bound, over
	// the admissible band instead of the full matrix.
	AlgorithmPruned Algorithm = "pruned"
	// AlgorithmPrunedParallel is an alias of AlgorithmBounded, whose band
	// fill already runs on the wavefront pool.
	AlgorithmPrunedParallel Algorithm = "pruned-parallel"
	// AlgorithmBounded is true Carrillo–Lipman bounded search: it allocates
	// only the admissible band (memory scales with the cells the bound
	// admits, not the lattice), so exact alignment of similar triples runs
	// far past the full-matrix memory ceiling. Exact, with the same
	// preference-ordered traceback as AlgorithmParallel.
	AlgorithmBounded Algorithm = "bounded"
	// AlgorithmAStar is an alias of AlgorithmBounded. The best-first (A*)
	// frontier it used to name beat the band fill only on the thinnest
	// bands, and then by less than a fifth.
	AlgorithmAStar Algorithm = "astar"
	// AlgorithmAffine is an alias of AlgorithmAffineParallel, which honours
	// Workers; set 1 for one thread.
	AlgorithmAffine Algorithm = "affine"
	// AlgorithmAffineLinear is AlgorithmAffineParallel in O(m·p) working
	// memory (the 7-state divide-and-conquer, on one thread).
	AlgorithmAffineLinear Algorithm = "affine-linear"
	// AlgorithmAffineParallel optimizes the quasi-natural affine SP
	// objective under the blocked-wavefront schedule; Options.Workers sets
	// its parallelism.
	AlgorithmAffineParallel Algorithm = "affine-parallel"
	// AlgorithmCenterStar is the center-star heuristic (not optimal).
	AlgorithmCenterStar Algorithm = "center-star"
	// AlgorithmCenterStarRefined is center-star followed by iterative
	// refinement (not optimal, but the strongest heuristic here).
	AlgorithmCenterStarRefined Algorithm = "center-star-refined"
	// AlgorithmProgressive is the progressive profile heuristic (not optimal).
	AlgorithmProgressive Algorithm = "progressive"
)

// Algorithms lists every accepted Algorithm value (excluding Auto).
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgorithmFull, AlgorithmFullPacked, AlgorithmParallel, AlgorithmParallelPacked,
		AlgorithmLinear, AlgorithmParallelLinear,
		AlgorithmDiagonal, AlgorithmPruned, AlgorithmPrunedParallel,
		AlgorithmBounded, AlgorithmAStar,
		AlgorithmAffine, AlgorithmAffineLinear, AlgorithmAffineParallel,
		AlgorithmCenterStar, AlgorithmCenterStarRefined, AlgorithmProgressive,
	}
}

// ParseAlgorithm validates a user-supplied algorithm name. The empty string
// is AlgorithmAuto; anything else must be one of Algorithms(). It is the
// boundary check for servers and CLIs that accept the name over the wire —
// Align itself reports an unknown algorithm only after resolving schemes
// and options.
func ParseAlgorithm(name string) (Algorithm, error) {
	a := Algorithm(name)
	if a == AlgorithmAuto {
		return a, nil
	}
	for _, known := range Algorithms() {
		if a == known {
			return a, nil
		}
	}
	return "", fmt.Errorf("repro: unknown algorithm %q", name)
}

// AlphabetByName resolves a standard alphabet by its lower-case name:
// "dna", "rna", or "protein".
func AlphabetByName(name string) (*Alphabet, bool) {
	switch name {
	case "dna":
		return seq.DNA, true
	case "rna":
		return seq.RNA, true
	case "protein":
		return seq.Protein, true
	}
	return nil, false
}

// Options configures Align. The zero value aligns with the parallel exact
// algorithm under a default scheme for the triple's alphabet.
type Options struct {
	// Algorithm selects the strategy; AlgorithmAuto by default.
	Algorithm Algorithm
	// Scheme overrides the scoring scheme. Defaults: +2/−1 with −2 linear
	// gaps for DNA/RNA, BLOSUM62 (with its affine gaps) for protein.
	Scheme *Scheme
	// Workers is the goroutine pool size of the exact kernels — their only
	// parallelism knob; 1 runs one thread, non-positive means GOMAXPROCS.
	Workers int
	// BlockSize is the wavefront tile edge; non-positive means the core
	// default.
	BlockSize int
	// MaxBytes caps lattice allocations; non-positive means the core
	// default (4 GiB). It is a hard admission check: an explicit Algorithm
	// whose lattice exceeds it fails with ErrTooLarge (AlgorithmAuto steers
	// around it by picking a linear-space kernel).
	MaxBytes int64
	// MaxMemoryBytes, when positive, is a soft planning budget: instead of
	// rejecting, the planner downgrades along the space-class ladder —
	// full lattice → linear-space sweep planes → (for exact requests) the
	// center-star-refined heuristic as a degraded last resort — until the
	// estimated footprint fits. Every step is recorded in
	// Result.Plan.Downgrades; a heuristic last resort additionally marks
	// the Result Degraded with a cause wrapping ErrTooLarge. A budget too
	// small for even the cheapest kernel fails with ErrTooLarge.
	MaxMemoryBytes int64
	// Deadline, when positive, bounds the wall-clock time of one Align
	// call: the alignment runs under a context that expires after this
	// duration (in addition to any deadline already on the caller's
	// context). Use Deadline to bound time and MaxBytes to bound memory;
	// for screening workloads the two are complementary — MaxBytes rejects
	// oversized inputs instantly, Deadline catches inputs that fit in
	// memory but compute too slowly.
	Deadline time.Duration
	// Fallback enables graceful degradation for exact algorithms: when the
	// exact run is stopped by a deadline, a cancelled context with budget
	// remaining, or the MaxBytes admission check, the triple is re-aligned
	// with AlgorithmCenterStarRefined inside the remaining budget and the
	// Result is marked Degraded instead of returning the error. Fallback
	// never triggers when the caller's own context is already done.
	Fallback bool
}

// Result is a completed alignment plus execution metadata.
type Result struct {
	*Alignment
	// Algorithm is the algorithm that actually ran (resolved from Auto or
	// an alias; AlgorithmCenterStarRefined when Degraded).
	Algorithm Algorithm
	// Elapsed is the wall-clock alignment time.
	Elapsed time.Duration
	// Prune carries Carrillo–Lipman statistics when one of the
	// bounded-search kernel ran (AlgorithmBounded, or an alias of it): the
	// lattice size, the cells actually evaluated, and the bounds.
	Prune *PruneStats
	// Plan is the execution plan that produced this result: the planner's
	// kernel choice with its footprint and duration estimates, including
	// any budget-driven downgrades. A band-first plan that left the band
	// comes back naming the kernel that ran (its dense fallback),
	// with the switch and the band's measured cells appended to
	// Downgrades. When Degraded is set via the Fallback policy, Algorithm
	// reports what actually ran.
	Plan *Plan
	// Degraded reports that the exact algorithm was abandoned (deadline or
	// memory cap) and the alignment came from the heuristic fallback; the
	// score is a lower bound on the optimum, not the optimum.
	Degraded bool
	// DegradedCause is the error that triggered the fallback when Degraded
	// is set; it wraps ErrTooLarge, context.DeadlineExceeded, or
	// context.Canceled and satisfies errors.Is for them.
	DegradedCause error
	// CacheHit reports that this result was served from a serving-layer
	// result cache rather than computed for this call. Score, rows, and
	// Plan describe the original computation; Elapsed is the time this
	// serve took (a cache lookup, not a kernel run). The library itself
	// never sets it — the alignd serving tier does.
	CacheHit bool
}

// DefaultScheme returns the default scoring scheme for an alphabet:
// +2/−1/−2 for DNA and RNA, BLOSUM62 for protein.
func DefaultScheme(alpha *Alphabet) (*Scheme, error) {
	switch alpha {
	case seq.DNA:
		return scoring.DNADefault(), nil
	case seq.RNA:
		s, err := scoring.MatchMismatch(seq.RNA, 2, -1, -2)
		if err != nil {
			return nil, err
		}
		return s, nil
	case seq.Protein:
		return scoring.BLOSUM62(), nil
	default:
		return nil, fmt.Errorf("repro: no default scheme for alphabet %q; set Options.Scheme", alpha.Name())
	}
}

// SchemeByName looks up a named scheme: "dna", "blosum62", "blosum80",
// "pam250".
func SchemeByName(name string) (*Scheme, bool) { return scoring.ByName(name) }

// NewSequence validates residues and builds a Sequence.
func NewSequence(name, residues string, alpha *Alphabet) (*Sequence, error) {
	return seq.New(name, []byte(residues), alpha)
}

// NewTriple builds and validates a Triple from three residue strings.
func NewTriple(a, b, c string, alpha *Alphabet) (Triple, error) {
	sa, err := seq.New("A", []byte(a), alpha)
	if err != nil {
		return Triple{}, err
	}
	sb, err := seq.New("B", []byte(b), alpha)
	if err != nil {
		return Triple{}, err
	}
	sc, err := seq.New("C", []byte(c), alpha)
	if err != nil {
		return Triple{}, err
	}
	t := Triple{A: sa, B: sb, C: sc}
	return t, t.Validate()
}

// ReadTripleFASTA reads exactly three FASTA records.
func ReadTripleFASTA(r io.Reader, alpha *Alphabet) (Triple, error) {
	return seq.ReadTripleFASTA(r, alpha)
}

// ReadFASTA reads all FASTA records from r — the N-sequence input path of
// AlignMSA.
func ReadFASTA(r io.Reader, alpha *Alphabet) ([]*Sequence, error) {
	return seq.ReadFASTA(r, alpha)
}

// WriteFASTA writes sequences in FASTA format wrapped at width columns.
func WriteFASTA(w io.Writer, seqs []*Sequence, width int) error {
	return seq.WriteFASTA(w, seqs, width)
}

// NewGenerator returns a deterministic synthetic-sequence generator.
func NewGenerator(alpha *Alphabet, s int64) *Generator { return seq.NewGenerator(alpha, s) }

// KmerDistance returns the normalized (0–1) alignment-free k-mer distance
// between two sequences — the standard cheap prefilter before exact
// alignment in screening pipelines.
func KmerDistance(a, b *Sequence, k int) float64 { return seq.KmerDistance(a, b, k) }

// resolveScheme returns opt.Scheme or the alphabet default.
func resolveScheme(tr Triple, opt Options) (*Scheme, error) {
	if opt.Scheme != nil {
		return opt.Scheme, nil
	}
	return DefaultScheme(tr.A.Alphabet())
}

// gapModel maps a scheme onto the planner's gap-model axis.
func gapModel(sch *Scheme) plan.GapModel {
	if sch.Affine() {
		return plan.GapAffine
	}
	return plan.GapLinear
}

// ProbeK is the k-mer size of SketchTriple: long enough that random DNA
// shares few k-mers, short enough that 80%-identity relatives still share
// most.
const ProbeK = 6

// SketchTriple builds the triple's k-mer sketch at ProbeK — one profile
// pass per sequence. alignd no longer calls it: the near-duplicate
// prescreen it fed was retired once a band-first miss, seeded from its own
// refined center-star, ran faster than the seeded patch-up. It is kept
// only for the benchmark's traced layers (probe.sketch_us,
// cache.nearest_us).
func SketchTriple(tr Triple) *TripleSketch { return seq.SketchTriple(tr, ProbeK) }

// planRequest translates a triple and Options into a planner request.
func planRequest(tr Triple, sch *Scheme, opt Options) plan.Request {
	return plan.Request{
		Shape:          plan.Shape{NA: tr.A.Len(), NB: tr.B.Len(), NC: tr.C.Len()},
		Gap:            gapModel(sch),
		Algorithm:      string(opt.Algorithm),
		Workers:        opt.Workers,
		BlockSize:      opt.BlockSize,
		MaxBytes:       opt.MaxBytes,
		MaxMemoryBytes: opt.MaxMemoryBytes,
		MaxAbsColumn:   core.MaxAbsColumn(sch),
	}
}

// PlanAlign resolves the execution plan Align would run for the triple
// under opt — kernel, tile shape, workers, and footprint/duration
// estimates — without allocating a lattice or aligning anything. It is
// the dry-run entry point behind align3 -explain and alignd's POST
// /v1/plan, and the admission hook serving layers use to reject oversized
// requests before they queue (the returned error wraps ErrTooLarge when
// no kernel fits Options.MaxMemoryBytes).
func PlanAlign(tr Triple, opt Options) (*Plan, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	sch, err := resolveScheme(tr, opt)
	if err != nil {
		return nil, err
	}
	pl, _, err := resolvePlan(tr, sch, opt)
	return pl, err
}

// resolvePlan runs the planner for a validated triple and resolved scheme,
// keeping the facade's historical error surface (unknown algorithms are
// reported as "repro: unknown algorithm").
func resolvePlan(tr Triple, sch *Scheme, opt Options) (*Plan, *plan.KernelSpec, error) {
	if opt.Algorithm != AlgorithmAuto {
		if _, ok := plan.Lookup(string(opt.Algorithm)); !ok {
			return nil, nil, fmt.Errorf("repro: unknown algorithm %q", opt.Algorithm)
		}
	}
	pl, spec, err := plan.Resolve(planRequest(tr, sch, opt))
	if err != nil {
		return nil, nil, fmt.Errorf("repro: align: %w", err)
	}
	return pl, spec, nil
}

// degradable reports whether err is a budget exhaustion the Fallback
// policy may recover from: a deadline or cancellation that stopped the
// kernel mid-flight, or the MaxBytes admission check rejecting the lattice
// up front.
func degradable(err error) bool {
	return errors.Is(err, ErrTooLarge) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// Align aligns the triple according to opt. It is AlignContext under
// context.Background(): uncancellable, but still subject to Options.Deadline
// and Options.Fallback.
func Align(tr Triple, opt Options) (*Result, error) {
	return AlignContext(context.Background(), tr, opt)
}

// AlignContext aligns the triple according to opt under a context — the
// primary entry point. Cancelling ctx (or exceeding Options.Deadline)
// stops the alignment cooperatively: sequential kernels poll at plane
// boundaries, parallel kernels per wavefront block, and the worker pool
// drains without leaking goroutines. The returned error wraps
// context.Canceled or context.DeadlineExceeded (check with errors.Is).
//
// With Options.Fallback set, a deadline or memory-cap failure of an exact
// algorithm degrades to AlgorithmCenterStarRefined instead of failing; the
// Result then has Degraded set and DegradedCause holding the original
// error.
func AlignContext(ctx context.Context, tr Triple, opt Options) (*Result, error) {
	return alignWith(ctx, tr, opt)
}

// alignWith is the single execution path behind Align, AlignContext, and
// the batch claimers: plan through the kernel registry, dispatch the
// planned spec, and apply the Fallback degradation policy.
func alignWith(ctx context.Context, tr Triple, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("repro: align: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	sch, err := resolveScheme(tr, opt)
	if err != nil {
		return nil, err
	}
	pl, spec, err := resolvePlan(tr, sch, opt)
	if err != nil {
		return nil, err
	}
	copt := core.Options{
		Workers:   opt.Workers,
		BlockSize: opt.BlockSize,
		MaxBytes:  opt.MaxBytes,
		TileDims:  pl.TileDims,
		CellWidth: pl.CellWidthBits,
	}

	runCtx := ctx
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}

	start := time.Now()
	var (
		aln   *Alignment
		prune *PruneStats
	)
	if pl.Fallback != "" {
		// Band first: the plan names the dense kernel that runs when the
		// counted band is not the cheaper run, and the returned plan names
		// the kernel that did run.
		aln, prune, pl, err = plan.RunBandFirst(runCtx, pl, tr, sch, copt)
	} else {
		aln, prune, err = spec.Run(runCtx, tr, sch, copt)
	}
	if err != nil {
		// Degrade only when the caller's own context still has budget:
		// a dead parent means the caller is gone, not over-ambitious.
		if opt.Fallback && spec.Exact && degradable(err) && ctx.Err() == nil {
			aln2, ferr := msa.CenterStarRefined(tr, sch)
			if ferr != nil {
				return nil, fmt.Errorf("repro: fallback after %v failed: %w", err, ferr)
			}
			return &Result{
				Alignment:     aln2,
				Algorithm:     AlgorithmCenterStarRefined,
				Elapsed:       time.Since(start),
				Plan:          pl,
				Degraded:      true,
				DegradedCause: err,
			}, nil
		}
		return nil, err
	}
	res := &Result{
		Alignment: aln,
		Algorithm: Algorithm(pl.Algorithm),
		Elapsed:   time.Since(start),
		Prune:     prune,
		Plan:      pl,
	}
	// A plan that bottomed out on the heuristic last resort is a degraded
	// answer even though the run itself succeeded: the score is a lower
	// bound, not the optimum the caller asked for.
	if pl.Degraded {
		res.Degraded = true
		res.DegradedCause = fmt.Errorf(
			"repro: exact alignment exceeds the %d-byte memory budget; planned heuristic %s instead: %w",
			opt.MaxMemoryBytes, pl.Algorithm, ErrTooLarge)
	}
	return res, nil
}
