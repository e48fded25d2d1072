package plan

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// RunFunc executes one kernel. PruneStats is non-nil only for the
// Carrillo–Lipman kernels.
type RunFunc func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, error)

// KernelSpec is one algorithm's self-description: what it optimizes, how
// it scales, how to estimate its footprint, and how to run it. The
// registry of specs replaces the hard-coded algorithm switch that used to
// live in the facade.
type KernelSpec struct {
	// Name is the public algorithm name (repro.Algorithm value).
	Name string
	// Gaps is the bitmask of gap models the kernel optimizes. Purely
	// descriptive for dispatch (an explicit request runs regardless, as the
	// old switch did), normative for automatic selection.
	Gaps GapModel
	// Space is the working-memory growth class; the downgrade ladder is
	// monotone non-increasing in it.
	Space SpaceClass
	// Parallel reports that the kernel exploits Options.Workers.
	Parallel bool
	// Exact reports a provably optimal kernel (under its gap model), as
	// opposed to a heuristic; only exact kernels participate in the
	// Fallback degradation policy and the budget last resort.
	Exact bool
	// Traceback reports that the kernel reconstructs the full aligned rows
	// (every registered kernel currently does; score-only kernels would
	// clear it).
	Traceback bool
	// Blocked3D reports that the kernel runs the blocked 3D wavefront
	// schedule and therefore negotiates TileDims through the planner.
	Blocked3D bool
	// WidthAware reports that the kernel honors core.Options.CellWidth:
	// the planner may negotiate 16-bit lattice cells for it (halving the
	// byte estimate) when the request's score bound allows.
	WidthAware bool
	// BytesPerCell is the lattice cost per DP cell for blocked kernels
	// (4 for the single linear-gap tensor, 28 for the seven affine ones);
	// it parameterizes the adaptive tile heuristic.
	BytesPerCell int
	// RateKey and RateScale map the kernel onto the calibrated throughput
	// table: predicted rate = Calibration[RateKey] × RateScale.
	RateKey   string
	RateScale float64
	// soloRateKey, when set, replaces RateKey at one worker: the blocked
	// kernel's sequential fill is calibrated by its own benchsuite row.
	soloRateKey string
	// RateOnEvaluated marks the calibrated rate as per-*evaluated*-cell
	// rather than per-lattice-cell: the bounded-search kernels' throughput
	// is measured over the cells the bound admits. Explicit plans for such
	// kernels assume the whole lattice and surface it as
	// EstEvaluatedCells; a band-first plan counts the band at run time.
	RateOnEvaluated bool
	// Downgrade names the next kernel down the memory ladder, or "" when
	// only the heuristic last resort (exact kernels) or nothing (heuristics)
	// remains.
	Downgrade string
	// EstBytes predicts the peak working-set allocation for a shape,
	// saturating in uint64.
	EstBytes func(Shape) uint64
	// EstCells predicts the DP cell count; nil means the full lattice
	// Shape.Cells (linear-space kernels still fill every lattice cell —
	// their saving is space, not work).
	EstCells func(Shape) uint64
	// Run executes the kernel.
	Run RunFunc
}

func (k *KernelSpec) estCells(s Shape) uint64 {
	if k.EstCells != nil {
		return k.EstCells(s)
	}
	return s.Cells()
}

// Supports reports whether the kernel optimizes the gap model.
func (k *KernelSpec) Supports(g GapModel) bool { return k.Gaps&g != 0 }

var (
	kernels = make(map[string]*KernelSpec)
	order   []string
)

// aliases maps retired algorithm names onto the kernel that serves them,
// so every public name keeps parsing while plans report the canonical
// kernel. The retired sequential names (full, linear, affine) alias the
// blocked kernel of the same gap model and space class: parallelism is
// Options.Workers, and one worker is the sequential fill.
var aliases = map[string]string{
	"full":            "parallel",
	"full-packed":     "parallel",
	"parallel-packed": "parallel",
	"diagonal":        "parallel",
	"linear":          "parallel-linear",
	"affine":          "affine-parallel",
	"pruned":          "bounded",
	"pruned-parallel": "bounded",
}

// Lookup finds a kernel spec by algorithm name, resolving retired aliases
// to their canonical kernel.
func Lookup(name string) (*KernelSpec, bool) {
	if to, ok := aliases[name]; ok {
		name = to
	}
	k, ok := kernels[name]
	return k, ok
}

// Kernels lists every registered spec in registration order.
func Kernels() []*KernelSpec {
	out := make([]*KernelSpec, len(order))
	for i, name := range order {
		out[i] = kernels[name]
	}
	return out
}

func register(k *KernelSpec) {
	if _, dup := kernels[k.Name]; dup {
		panic("plan: duplicate kernel " + k.Name)
	}
	kernels[k.Name] = k
	order = append(order, k.Name)
}

// wrap adapts the common (Alignment, error) kernel signature to RunFunc.
func wrap(f func(context.Context, seq.Triple, *scoring.Scheme, core.Options) (*alignment.Alignment, error)) RunFunc {
	return func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, error) {
		aln, err := f(ctx, tr, sch, opt)
		return aln, nil, err
	}
}

// wrapHeuristic adapts the context-free msa heuristics to RunFunc.
func wrapHeuristic(f func(seq.Triple, *scoring.Scheme) (*alignment.Alignment, error)) RunFunc {
	return func(_ context.Context, tr seq.Triple, sch *scoring.Scheme, _ core.Options) (*alignment.Alignment, *core.PruneStats, error) {
		aln, err := f(tr, sch)
		return aln, nil, err
	}
}

// runBounded runs a Carrillo–Lipman bounded-search kernel — the contiguous
// band fill or the A* frontier — seeded with the center-star-refined lower
// bound, surfacing its PruneStats. The three pairwise Forward planes are
// filled once: they give the seed its pair optima and center-star
// alignments, and the band fill turns them into its through planes. A*
// needs only suffix planes, so it fills those itself.
func runBounded(frontier bool) RunFunc {
	return func(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, error) {
		if err := tr.Validate(); err != nil {
			return nil, nil, err
		}
		fwd := pairwise.Forwards(tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), sch, wavefront.Workers(opt.Workers))
		bound, err := seedOn(tr, sch, fwd)
		if err != nil {
			fwd.Release()
			return nil, nil, err
		}
		var (
			aln *alignment.Alignment
			st  core.PruneStats
		)
		if frontier {
			fwd.Release()
			aln, st, err = core.AlignAStar(ctx, tr, sch, opt, bound.Score)
		} else {
			aln, st, err = core.AlignBoundedOn(ctx, tr, sch, opt, fwd, bound.Score)
		}
		if err != nil {
			return nil, nil, err
		}
		return aln, &st, nil
	}
}

// seedOn is the bounded kernels' lower bound: center-star traced on the
// Forward planes fwd, refined unless it already scores the pairwise upper
// bound.
func seedOn(tr seq.Triple, sch *scoring.Scheme, fwd pairwise.Planes) (*alignment.Alignment, error) {
	star, upper, err := msa.CenterStarOn(tr, sch, fwd)
	if err != nil {
		return nil, err
	}
	return msa.RefineBelow(star, upper, sch)
}

// Footprint estimators. The byte models mirror what the kernels actually
// allocate: one int32 lattice for linear gaps, seven for affine,
// 4 sweep planes (Hirschberg) or 28 (affine Hirschberg), and int32
// score + traceback pairwise matrices for the heuristics.
func latticeBytes(perCell uint64) func(Shape) uint64 {
	return func(s Shape) uint64 { return mulSat(s.Cells(), perCell) }
}

func planeBytes(perCell uint64) func(Shape) uint64 {
	return func(s Shape) uint64 { return mulSat(s.PlaneCells(), perCell) }
}

func pairBytes(s Shape) uint64 { return mulSat(s.PairCells(), 12) }

func pairCells(s Shape) uint64 { return s.PairCells() }

func init() {
	register(&KernelSpec{
		// The paper's blocked wavefront on the lane-packed k-lane interior
		// (AVX2 max-plus scan where the host has it, unrolled
		// bounds-check-free windows elsewhere). At one worker the tiles
		// run in order on the caller, calibrated by the benchsuite row
		// that times exactly that sequential fill.
		Name: "parallel", Gaps: GapLinear, Space: SpaceLattice,
		Parallel: true, Exact: true, Traceback: true, Blocked3D: true, WidthAware: true, BytesPerCell: 4,
		RateKey: "parallel-packed", soloRateKey: "full-packed", RateScale: 1,
		Downgrade: "parallel-linear", EstBytes: latticeBytes(4),
		Run: wrap(core.AlignParallel),
	})
	register(&KernelSpec{
		Name: "parallel-linear", Gaps: GapLinear, Space: SpacePlanes,
		Parallel: true, Exact: true, Traceback: true, BytesPerCell: 4,
		RateKey: "linear", RateScale: 1,
		EstBytes: planeBytes(16),
		Run:      wrap(core.AlignParallelLinear),
	})
	register(&KernelSpec{
		// The Carrillo–Lipman contiguous band: allocates only the cells the
		// three-way bound admits, so memory and work scale with the
		// evaluated fraction. Exact and bit-identical to the full kernel's
		// traceback; the rate and cell estimates are per evaluated cell.
		Name: "bounded", Gaps: GapLinear, Space: SpaceBand,
		Parallel: true, Exact: true, Traceback: true, BytesPerCell: 4,
		RateKey: "bounded", RateScale: 1, RateOnEvaluated: true,
		Downgrade: "parallel-linear",
		EstBytes:  func(s Shape) uint64 { return bandBytes(s, s.Cells()) },
		Run:       runBounded(false),
	})
	register(&KernelSpec{
		// The A* frontier (Schroedl): best-first over the lattice with the
		// pairwise suffix heuristic. No lattice-shaped allocation at all —
		// memory is per expanded node — which wins on very similar triples
		// whose admissible region is a thin tube, at a steep per-node cost.
		Name: "astar", Gaps: GapLinear, Space: SpaceBand,
		Exact: true, Traceback: true, BytesPerCell: 4,
		RateKey: "astar", RateScale: 1, RateOnEvaluated: true,
		Downgrade: "parallel-linear",
		EstBytes:  func(s Shape) uint64 { return astarBytes(s, s.Cells()) },
		Run:       runBounded(true),
	})
	register(&KernelSpec{
		// The affine Hirschberg halves at every level; its rate is roughly
		// half the one-pass affine fill's.
		Name: "affine-linear", Gaps: GapAffine, Space: SpacePlanes,
		Exact: true, Traceback: true, BytesPerCell: 28,
		RateKey: "affine7", RateScale: 0.5,
		EstBytes: planeBytes(112),
		Run:      wrap(core.AlignAffineLinear),
	})
	register(&KernelSpec{
		Name: "affine-parallel", Gaps: GapAffine, Space: SpaceLattice,
		Parallel: true, Exact: true, Traceback: true, Blocked3D: true, BytesPerCell: 28,
		RateKey: "affine7", RateScale: 1,
		Downgrade: "affine-linear", EstBytes: latticeBytes(28),
		Run: wrap(core.AlignAffineParallel),
	})
	register(&KernelSpec{
		Name: "center-star", Gaps: GapLinear | GapAffine, Space: SpacePairwise,
		Traceback: true,
		RateKey:   "pairwise-global", RateScale: 1,
		EstBytes: pairBytes, EstCells: pairCells,
		Run: wrapHeuristic(msa.CenterStar),
	})
	register(&KernelSpec{
		// Refinement re-aligns each row against the other two a bounded
		// number of rounds; call it half the raw center-star rate.
		Name: "center-star-refined", Gaps: GapLinear | GapAffine, Space: SpacePairwise,
		Traceback: true,
		RateKey:   "pairwise-global", RateScale: 0.5,
		EstBytes: pairBytes, EstCells: pairCells,
		Run: wrapHeuristic(msa.CenterStarRefined),
	})
	register(&KernelSpec{
		Name: "progressive", Gaps: GapLinear | GapAffine, Space: SpacePairwise,
		Traceback: true,
		RateKey:   "pairwise-global", RateScale: 0.7,
		EstBytes: pairBytes, EstCells: pairCells,
		Run: wrapHeuristic(msa.Progressive),
	})

	if err := checkRegistry(); err != nil {
		panic(err)
	}
}

// checkRegistry is the registry self-check init panics on: every downgrade
// edge must exist and move down the space-class ladder, or the budget loop
// in Resolve could cycle or dead-end on a typo; every rate key must have a
// calibration row, or duration predictions silently go to zero; every
// alias must name a registered kernel and must not shadow one.
func checkRegistry() error {
	for alias, to := range aliases {
		if _, ok := kernels[to]; !ok {
			return fmt.Errorf("plan: alias %s targets unregistered %s", alias, to)
		}
		if _, ok := kernels[alias]; ok {
			return fmt.Errorf("plan: alias %s shadows a registered kernel", alias)
		}
	}
	for _, k := range Kernels() {
		keys := []string{k.RateKey}
		if k.soloRateKey != "" {
			keys = append(keys, k.soloRateKey)
		}
		for _, key := range keys {
			if _, ok := Calibration[key]; !ok {
				return fmt.Errorf("plan: %s has no calibration entry for rate key %s", k.Name, key)
			}
		}
		if k.Downgrade == "" {
			continue
		}
		to, ok := kernels[k.Downgrade]
		if !ok {
			return fmt.Errorf("plan: %s downgrades to unregistered %s", k.Name, k.Downgrade)
		}
		if to.Space >= k.Space {
			return fmt.Errorf("plan: downgrade %s→%s does not shrink the space class", k.Name, to.Name)
		}
	}
	return nil
}
