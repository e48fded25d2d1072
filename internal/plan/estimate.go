package plan

import (
	"math"

	"repro/internal/wavefront"
)

// Data-dependent cost model for the Carrillo–Lipman bounded-search kernels.
//
// The bounded kernels' work and memory scale with the *evaluated* fraction
// of the lattice — the cells the three-way bound admits — not with n·m·p.
// That fraction is unknowable without running the bound, but it correlates
// tightly with pairwise identity: near-identical triples leave a thin tube
// around the main diagonal, unrelated ones admit everything. The facade
// probes identity with a k-mer distance (cheap, alignment-free) and maps it
// through EvalFractionForIdentity; the planner treats the result as the
// predicted fraction for both byte and duration estimates. A request that
// carries no prediction (EvalFraction == 0) is planned at fraction 1 — the
// whole lattice — which keeps the estimate conservative and the bounded
// kernels unattractive, exactly as they should be on unknown data.

// MinBoundedLen is the smallest min-dimension for which automatic selection
// considers the bounded kernels. Below it the full-lattice kernels are
// effectively free and the bounded kernels' O(n²) projection planes and
// band planning are pure overhead.
const MinBoundedLen = 128

// AStarFractionMax is the predicted evaluated fraction below which a
// one-worker automatic request prefers the A* frontier over the contiguous
// band: the frontier beats the band only when the admissible region is a
// thin tube, since each expanded node costs a heap operation and a map
// probe instead of a handful of adds.
const AStarFractionMax = 0.05

// evalFracPoints is the piecewise-linear map from mean pairwise identity to
// predicted evaluated fraction, fitted against the benchsuite similarity
// sweep (identity 60/80/95%) and the core differential tests: ~96% identity
// evaluates a few percent of the lattice, 80% about a quarter, and by 50%
// the band is the whole lattice.
var evalFracPoints = [...][2]float64{
	{0.50, 1.00},
	{0.60, 0.70},
	{0.70, 0.45},
	{0.80, 0.25},
	{0.90, 0.12},
	{0.95, 0.05},
	{1.00, 0.01},
}

// EvalFractionForIdentity predicts the fraction of lattice cells the
// Carrillo–Lipman bound admits for a triple of the given mean pairwise
// identity (0..1). The prediction is monotone non-increasing in identity,
// clamped to [0.01, 1].
func EvalFractionForIdentity(identity float64) float64 {
	if math.IsNaN(identity) || identity <= evalFracPoints[0][0] {
		return 1
	}
	last := evalFracPoints[len(evalFracPoints)-1]
	if identity >= last[0] {
		return last[1]
	}
	for i := 1; i < len(evalFracPoints); i++ {
		if identity <= evalFracPoints[i][0] {
			lo, hi := evalFracPoints[i-1], evalFracPoints[i]
			t := (identity - lo[0]) / (hi[0] - lo[0])
			return lo[1] + t*(hi[1]-lo[1])
		}
	}
	return last[1]
}

// clampFrac sanitizes a predicted evaluated fraction: NaN or non-positive
// means "unknown", planned as the whole lattice; anything above 1 is a
// fraction of nothing more than the lattice.
func clampFrac(frac float64) float64 {
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return 1
	}
	return frac
}

// fracCells is the predicted evaluated cell count frac·Cells, saturating.
func fracCells(s Shape, frac float64) uint64 {
	f := float64(s.Cells()) * clampFrac(frac)
	if f >= float64(math.MaxUint64) {
		return math.MaxUint64
	}
	return uint64(f)
}

// bandBytes models AlignBounded's peak footprint: 4 bytes per stored band
// cell plus the pairwise planes (three through-planes for the bound, three
// score tables for the fill — ~8 bytes per pair cell).
func bandBytes(s Shape, frac float64) uint64 {
	return addSat(mulSat(fracCells(s, frac), 4), mulSat(s.PairCells(), 8))
}

// astarBytes models AlignAStar's peak footprint: ~64 bytes per expanded or
// frontier node (map entry plus amortized heap entry) over the same
// pairwise planes. The per-node constant is why A* only wins at tiny
// fractions despite expanding fewer cells.
func astarBytes(s Shape, frac float64) uint64 {
	return addSat(mulSat(fracCells(s, frac), 64), mulSat(s.PairCells(), 8))
}

// boundedCandidate is the Carrillo–Lipman kernel automatic selection would
// run for this request, or nil when none applies: the request must be
// linear-gap, carry an identity-probe prediction, and be long enough in
// every dimension that band planning pays for itself. One-worker requests
// with a very thin predicted band get the A* frontier; everything else gets
// the parallel contiguous band.
func boundedCandidate(req Request, gap GapModel) *KernelSpec {
	if gap != GapLinear || req.EvalFraction <= 0 || math.IsNaN(req.EvalFraction) {
		return nil
	}
	min := req.Shape.NA
	if req.Shape.NB < min {
		min = req.Shape.NB
	}
	if req.Shape.NC < min {
		min = req.Shape.NC
	}
	if min < MinBoundedLen {
		return nil
	}
	if wavefront.Workers(req.Workers) == 1 && req.EvalFraction <= AStarFractionMax {
		return kernels["astar"]
	}
	return kernels["bounded"]
}
