// Package plan is the memory-aware execution planner: the single place
// where the library decides *how* a three-sequence alignment runs.
//
// Every kernel self-describes through a KernelSpec in the registry
// (registry.go): which gap models it optimizes, its space class, whether
// it runs on the wavefront pool, and how to estimate its lattice
// footprint for a problem Shape. Resolve maps a Request — shape, gap
// model, requested algorithm, workers, tile override, and memory budgets
// — onto an ExecutionPlan: the concrete kernel, its tile dimensions, and
// the predicted cells, bytes, throughput, and duration of the run.
//
// The prediction side is calibrated from the committed BENCH_<rev>.json
// baseline (calib.go); `benchsuite -calibrate` re-derives the constants
// and fails when they drift from the committed table.
//
// Budgets come in two strengths:
//
//   - Request.MaxBytes is the hard admission cap the kernels themselves
//     enforce (core.Options.MaxBytes, ErrTooLarge). The planner only uses
//     it to steer automatic selection, exactly as the old resolveAlgorithm
//     switch did: an auto request whose full lattice exceeds the cap gets
//     the linear-space sibling.
//
//   - Request.MaxMemoryBytes is the soft planning budget. When set, the
//     planner walks the downgrade ladder — full lattice → linear-space
//     sweep planes → (for exact requests) the center-star-refined
//     heuristic as a degraded last resort — until the estimated footprint
//     fits, recording every step in ExecutionPlan.Downgrades. A plan that
//     cannot fit even its cheapest kernel fails with an error wrapping
//     core.ErrTooLarge.
//
// Long linear-gap triples are planned "band first" (bandfirst.go): the
// Carrillo–Lipman band runs in front of a named dense fallback and is
// kept only when, counted exactly at run time, it is the cheaper run.
//
// All cell and byte arithmetic saturates in uint64, so adversarially long
// sequences produce a saturated estimate instead of a wrapped-around small
// one (the overflow class of bug the old int-typed lattice guard had).
package plan

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/wavefront"
)

// fpDowngrade forces one extra step down the space-class ladder on a fired
// hit, as if the resolved kernel's estimate had come in over budget. Chaos
// runs use it to drive the downgrade machinery — and everything downstream
// that reads ExecutionPlan.Downgrades — deterministically, without
// crafting shapes that straddle a real budget boundary.
var fpDowngrade = faultpoint.New("plan.downgrade")

// GapModel is the gap-cost family a scoring scheme uses and a kernel
// optimizes. Specs carry a bitmask; requests carry a single model.
type GapModel uint8

const (
	// GapLinear is the linear gap model: cost proportional to gap length.
	GapLinear GapModel = 1 << iota
	// GapAffine is the quasi-natural affine model: open + extend costs.
	GapAffine
)

func (g GapModel) String() string {
	switch g {
	case GapLinear:
		return "linear"
	case GapAffine:
		return "affine"
	}
	return fmt.Sprintf("gap-model(%d)", uint8(g))
}

// SpaceClass orders kernels by the asymptotic growth of their working
// memory. The downgrade ladder is monotone non-increasing in this order.
type SpaceClass int

const (
	// SpacePairwise is O(n²) pairwise matrices — the heuristics.
	SpacePairwise SpaceClass = iota
	// SpacePlanes is O(m·p) sweep planes — the linear-space exact kernels.
	SpacePlanes
	// SpaceBand is the Carrillo–Lipman admissible band: O(f·n·m·p) for the
	// data-dependent evaluated fraction f, plus the O(n²) projection planes.
	// It sits between the sweep planes and the full lattice because f is
	// bounded only by the data — near-identical triples make it tiny,
	// unrelated ones make it the whole lattice.
	SpaceBand
	// SpaceLattice is the O(n·m·p) full lattice.
	SpaceLattice
)

func (c SpaceClass) String() string {
	switch c {
	case SpacePairwise:
		return "O(n²)"
	case SpacePlanes:
		return "O(m·p)"
	case SpaceBand:
		return "O(f·n·m·p)"
	case SpaceLattice:
		return "O(n·m·p)"
	}
	return fmt.Sprintf("space-class(%d)", int(c))
}

// Shape is the problem size: residue counts of the three sequences. It is
// deliberately three ints rather than a Triple so that plans — including
// tests with adversarially long sequences — need no allocation.
type Shape struct {
	NA, NB, NC int
}

// mulSat is saturating uint64 multiplication.
func mulSat(a, b uint64) uint64 {
	if a != 0 && b > math.MaxUint64/a {
		return math.MaxUint64
	}
	return a * b
}

// addSat is saturating uint64 addition.
func addSat(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// Cells is the DP lattice cell count (na+1)(nb+1)(nc+1), saturating at
// MaxUint64.
func (s Shape) Cells() uint64 {
	return mulSat(mulSat(uint64(s.NA)+1, uint64(s.NB)+1), uint64(s.NC)+1)
}

// PlaneCells is the (nb+1)(nc+1) sweep-plane cell count the linear-space
// kernels re-fill, saturating.
func (s Shape) PlaneCells() uint64 {
	return mulSat(uint64(s.NB)+1, uint64(s.NC)+1)
}

// PairCells sums the three pairwise DP matrix sizes the heuristics fill,
// saturating.
func (s Shape) PairCells() uint64 {
	ab := mulSat(uint64(s.NA)+1, uint64(s.NB)+1)
	ac := mulSat(uint64(s.NA)+1, uint64(s.NC)+1)
	bc := mulSat(uint64(s.NB)+1, uint64(s.NC)+1)
	return addSat(addSat(ab, ac), bc)
}

func (s Shape) valid() bool { return s.NA >= 0 && s.NB >= 0 && s.NC >= 0 }

// Request is one planning problem.
type Request struct {
	// Shape is the triple's residue counts.
	Shape Shape
	// Gap is the scheme's gap model; zero means GapLinear.
	Gap GapModel
	// Algorithm is the requested kernel name or an alias Lookup resolves;
	// empty means automatic selection by gap model and budget.
	Algorithm string
	// Workers is the requested pool size; non-positive means GOMAXPROCS.
	Workers int
	// BlockSize is an explicit cubic tile override for blocked kernels;
	// non-positive means the adaptive heuristic picks the shape.
	BlockSize int
	// MaxBytes is the hard lattice admission cap (kernels reject beyond
	// it); non-positive means core.DefaultMaxBytes. It steers automatic
	// selection only — explicit algorithms keep their historical
	// reject-with-ErrTooLarge contract.
	MaxBytes int64
	// MaxMemoryBytes, when positive, is the soft planning budget: the
	// planner downgrades along the space-class ladder until the estimated
	// footprint fits, instead of rejecting.
	MaxMemoryBytes int64
	// MaxAbsColumn bounds the absolute SP score of a single alignment
	// column under the request's scheme (core.MaxAbsColumn). Together with
	// the shape it lets the planner negotiate the lattice cell width: when
	// (NA+NB+NC)·MaxAbsColumn provably fits int16, width-aware kernels run
	// on 16-bit cells and their byte estimates halve. Zero (unknown bound)
	// keeps every plan at 32-bit cells.
	MaxAbsColumn int64
}

// ExecutionPlan is the planner's answer: the kernel that will run and the
// predicted footprint of the run. It is attached to every Result and
// served verbatim by alignd's POST /v1/plan.
type ExecutionPlan struct {
	// Algorithm is the kernel the plan selects.
	Algorithm string `json:"algorithm"`
	// Workers is the pool size the kernel will use (1 for sequential
	// kernels regardless of the request).
	Workers int `json:"workers"`
	// TileDims is the blocked-wavefront tile shape (ti, tj, tk); all-zero
	// for kernels that do not run the blocked 3D schedule.
	TileDims [3]int `json:"tile_dims"`
	// Fallback, when set, marks a band-first plan: Algorithm is the
	// Carrillo–Lipman band, tried first, and Fallback names the dense
	// kernel that runs instead when the band, counted exactly before it is
	// allocated, holds more than MaxBandCells cells. Workers, TileDims,
	// CellWidthBits and the estimates are the fallback's: the band is kept
	// only when it is the cheaper run.
	Fallback string `json:"fallback,omitempty"`
	// MaxBandCells is a band-first plan's band ceiling: the most cells
	// whose fill at the bounded rate costs no more than the fallback's
	// estimate and whose bytes fit the budget.
	MaxBandCells uint64 `json:"max_band_cells,omitempty"`
	// EstCells is the predicted DP cell count (saturating). Explicit
	// requests for the bounded-search kernels, whose rate is per
	// *evaluated* cell, are planned at the whole lattice.
	EstCells uint64 `json:"est_cells"`
	// EstEvaluatedCells, for an explicit bounded-search plan, is the
	// evaluated-cell count its estimates assume (equal to EstCells); zero
	// for every other plan.
	EstEvaluatedCells uint64 `json:"est_evaluated_cells,omitempty"`
	// EstBytes is the predicted peak lattice allocation (saturating),
	// already adjusted for the negotiated cell width. A band-first plan's
	// covers both its fallback and a band at MaxBandCells.
	EstBytes uint64 `json:"est_bytes"`
	// CellWidthBits is the negotiated lattice cell width: 16 when the
	// kernel is width-aware and the request's score bound proves every
	// lattice value fits int16, else 32.
	CellWidthBits int `json:"cell_width_bits"`
	// EstMcellsPerSec is the calibrated throughput prediction.
	EstMcellsPerSec float64 `json:"est_mcells_per_s"`
	// EstDuration is EstCells / EstMcellsPerSec.
	EstDuration time.Duration `json:"est_duration_ns"`
	// Downgrades records every substitution, in order: the budget-driven
	// ladder steps of planning and, in a Result's plan, a band-first run's
	// switch to A* or to its dense fallback.
	Downgrades []Downgrade `json:"downgrades,omitempty"`
	// Degraded reports that an exact request was downgraded to a heuristic
	// as the last resort: the planned score will be a lower bound, not the
	// optimum.
	Degraded bool `json:"degraded,omitempty"`
}

// Downgrade records one step down the memory ladder: the kernel the plan
// left, the kernel it moved to, and the footprint estimate of the left
// kernel against the budget that rejected it. Forced marks a step the
// plan.downgrade fault point injected; it carries no budget. A band-first
// run's switch away from the band carries BandCells instead: the band's
// cells as the run measured them, against the plan's MaxBandCells.
type Downgrade struct {
	From        string `json:"from"`
	To          string `json:"to"`
	EstBytes    uint64 `json:"est_bytes"`
	BudgetBytes uint64 `json:"budget_bytes"`
	Forced      bool   `json:"forced"`
	BandCells   uint64 `json:"band_cells,omitempty"`
}

// lastResort is the heuristic an exact request degrades to when no exact
// kernel fits the memory budget.
const lastResort = "center-star-refined"

// Resolve maps a Request onto an ExecutionPlan and the KernelSpec that
// will run it. Unknown algorithm names and budgets too small for any
// kernel (the latter wrapping core.ErrTooLarge) are errors.
func Resolve(req Request) (*ExecutionPlan, *KernelSpec, error) {
	if !req.Shape.valid() {
		return nil, nil, fmt.Errorf("plan: negative sequence length in shape %+v", req.Shape)
	}
	gap := req.Gap
	if gap == 0 {
		gap = GapLinear
	}
	workers := wavefront.Workers(req.Workers)

	var (
		spec       *KernelSpec
		fallback   *KernelSpec // a band-first plan's dense kernel
		ceiling    uint64      // a band-first plan's MaxBandCells
		downgrades []Downgrade
		degraded   bool
	)
	if req.Algorithm != "" {
		s, ok := Lookup(req.Algorithm)
		if !ok {
			return nil, nil, fmt.Errorf("plan: unknown algorithm %q", req.Algorithm)
		}
		spec = s
	} else {
		spec, downgrades = autoSpec(req, gap, autoBudget(req))
		if c, ok := bandFirst(req, gap, spec, autoBudget(req)); ok {
			fallback, ceiling = spec, c
			spec = kernels["bounded"]
			if len(downgrades) > 0 {
				// The over-budget step lands on the band, in front of the
				// sweep planes it falls back to.
				downgrades[0].To = spec.Name
			}
		}
	}
	estBytes := func() uint64 {
		if fallback != nil {
			return bandFirstBytes(req, fallback, ceiling)
		}
		return planEstBytes(spec, req)
	}

	if fpDowngrade.Fire() {
		if next := spec.Downgrade; next != "" {
			to := kernels[next]
			downgrades = append(downgrades, Downgrade{
				From: spec.Name, To: to.Name, EstBytes: estBytes(), Forced: true,
			})
			spec, fallback, ceiling = to, nil, 0
		}
	}

	// The soft budget walks the downgrade ladder until the estimate fits.
	// Width-aware kernels are judged by their negotiated-width footprint, so
	// a lattice that fits only at 16 bits stays on the fast kernel instead
	// of downgrading.
	if req.MaxMemoryBytes > 0 {
		budget := uint64(req.MaxMemoryBytes)
		for estBytes() > budget {
			step := Downgrade{From: spec.Name, EstBytes: estBytes(), BudgetBytes: budget}
			next := spec.Downgrade
			if next == "" {
				if !spec.Exact {
					return nil, nil, fmt.Errorf(
						"plan: no kernel fits the %s memory budget (cheapest %q needs %s): %w",
						fmtBytes(budget), spec.Name, fmtBytes(estBytes()), core.ErrTooLarge)
				}
				next = lastResort
				degraded = true
			}
			from, to := spec, kernels[next]
			spec, fallback, ceiling = to, nil, 0
			// A full-lattice kernel over budget tries the Carrillo–Lipman
			// band before surrendering exactness to the sweep planes: the
			// band runs first, still exact and preference-ordered, and the
			// sweep planes are its fallback.
			if from.Space == SpaceLattice {
				if c, ok := bandFirst(req, gap, to, budget); ok {
					fallback, ceiling = to, c
					spec = kernels["bounded"]
				}
			}
			step.To = spec.Name
			downgrades = append(downgrades, step)
		}
	}

	// A band-first plan is priced, shaped and sized by its fallback.
	priced := spec
	if fallback != nil {
		priced = fallback
	}
	width := negotiatedWidth(priced, req)
	pl := &ExecutionPlan{
		Algorithm:     spec.Name,
		MaxBandCells:  ceiling,
		Workers:       1,
		EstCells:      priced.estCells(req.Shape),
		EstBytes:      estBytes(),
		CellWidthBits: width,
		Downgrades:    downgrades,
		Degraded:      degraded,
	}
	if fallback != nil {
		pl.Fallback = fallback.Name
	} else if spec.RateOnEvaluated {
		pl.EstEvaluatedCells = pl.EstCells
	}
	if priced.Parallel {
		pl.Workers = workers
	}
	if priced.Blocked3D {
		if req.BlockSize > 0 {
			pl.TileDims = [3]int{req.BlockSize, req.BlockSize, req.BlockSize}
		} else {
			bpc := priced.BytesPerCell
			if width == 16 {
				// Half-width cells halve the per-tile working set, so the
				// adaptive heuristic may pick proportionally larger tiles.
				bpc /= 2
			}
			ti, tj, tk := core.AdaptiveTileDims(
				req.Shape.NA+1, req.Shape.NB+1, req.Shape.NC+1, workers, bpc)
			pl.TileDims = [3]int{ti, tj, tk}
		}
	}
	pl.EstMcellsPerSec = rateFor(priced, pl.Workers)
	pl.EstDuration = estDuration(pl.EstCells, pl.EstMcellsPerSec)
	return pl, spec, nil
}

// negotiatedWidth is the lattice cell width (in bits) the kernel will run
// at: 16 when the kernel honors core.Options.CellWidth and the request's
// column bound proves every lattice value — |score| ≤ total·MaxAbsColumn —
// fits int16; 32 otherwise. The same Int16SafeBound predicate gates the
// kernels themselves (core.Options.CellWidth is a hint, never trusted), so
// plan and execution cannot disagree.
func negotiatedWidth(spec *KernelSpec, req Request) int {
	if !spec.WidthAware || req.MaxAbsColumn <= 0 {
		return 32
	}
	total := addSat(addSat(uint64(req.Shape.NA), uint64(req.Shape.NB)), uint64(req.Shape.NC))
	if core.Int16SafeBound(total, uint64(req.MaxAbsColumn)) {
		return 16
	}
	return 32
}

// planEstBytes is the width-adjusted footprint estimate: half the 32-bit
// model when the kernel would run 16-bit cells.
func planEstBytes(spec *KernelSpec, req Request) uint64 {
	b := spec.EstBytes(req.Shape)
	if negotiatedWidth(spec, req) == 16 {
		b /= 2
	}
	return b
}

// predictedDuration is the wall-clock estimate automatic selection
// compares kernels by: predicted cells over the calibrated rate at the
// worker count the kernel would actually use.
func predictedDuration(spec *KernelSpec, req Request) time.Duration {
	w := 1
	if spec.Parallel {
		w = wavefront.Workers(req.Workers)
	}
	return estDuration(spec.estCells(req.Shape), rateFor(spec, w))
}

// autoBudget is the byte limit automatic selection steers against: the
// hard admission cap, tightened by the soft budget when one is set.
func autoBudget(req Request) uint64 {
	b := req.MaxBytes
	if b <= 0 {
		b = core.DefaultMaxBytes
	}
	budget := uint64(b)
	if req.MaxMemoryBytes > 0 && uint64(req.MaxMemoryBytes) < budget {
		budget = uint64(req.MaxMemoryBytes)
	}
	return budget
}

// autoSpec picks the dense kernel for an automatic request: the gap
// model's blocked full-lattice kernel, downgraded once to its linear-space
// sibling when the lattice exceeds the budget — the selection rule the old
// resolveAlgorithm switch hard-coded. Resolve then decides whether the
// run starts on the band in front of it (bandFirst).
func autoSpec(req Request, gap GapModel, budget uint64) (*KernelSpec, []Downgrade) {
	spec := kernels["parallel"]
	if gap == GapAffine {
		spec = kernels["affine-parallel"]
	}
	if planEstBytes(spec, req) <= budget {
		return spec, nil
	}
	next := kernels[spec.Downgrade]
	return next, []Downgrade{downgradeStep(spec, next, req, budget)}
}

// downgradeStep records one budget-driven ladder step.
func downgradeStep(from, to *KernelSpec, req Request, budget uint64) Downgrade {
	return Downgrade{From: from.Name, To: to.Name, EstBytes: planEstBytes(from, req), BudgetBytes: budget}
}

// estDuration converts a cell count and rate to a wall-clock prediction,
// saturating at the maximum Duration.
func estDuration(cells uint64, mcellsPerSec float64) time.Duration {
	if mcellsPerSec <= 0 {
		return 0
	}
	ns := float64(cells) / (mcellsPerSec * 1e6) * 1e9
	if ns >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}

// fmtBytes renders a byte count with a binary unit suffix for errors.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
