package plan

import (
	"context"
	"errors"
	"time"

	"repro/internal/alignment"
	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// Cost model for the Carrillo–Lipman bounded-search kernels.
//
// Their work and memory scale with the cells the three-way bound admits,
// not with n·m·p, and no cheap alignment-free signal predicts that count:
// on 300-residue DNA at 70% identity the band holds 0.02–0.2% of the
// lattice, while unrelated triples of the same k-mer identity admit
// several percent (EXPERIMENTS F9). So automatic selection does not guess
// it. A linear-gap request at least MinBoundedLen residues long in every
// dimension plans "band first" (bandFirst): the run fills the O(n²)
// prefix, counts the band exactly before allocating it, and keeps it only
// when its cells at the bounded rate cost less than the dense kernel the
// plan names as its fallback (RunBandFirst). Explicit requests for the
// bounded kernels are planned at the whole lattice, the conservative
// model for unknown data.

// MinBoundedLen is the smallest min-dimension for which automatic selection
// considers the bounded kernels. Below it the full-lattice kernels are
// effectively free and the bounded kernels' O(n²) projection planes and
// band planning are pure overhead.
const MinBoundedLen = 128

// AStarFractionMax is the measured band fraction at or below which a
// one-worker band-first run hands its prefix to the A* frontier instead of
// filling the band. Each expanded node costs a heap operation and a map
// probe instead of a handful of adds, so the frontier wins only on thin
// tubes: on 128–300-residue DNA it ran about twice as fast as the band
// fill at fractions near 0.0002 and lost from about 0.001 (EXPERIMENTS
// F9).
const AStarFractionMax = 0.0005

// bandBytes models AlignBounded's peak footprint for a band of the given
// stored cells: 4 bytes per cell plus the pairwise planes (three
// through-planes for the bound, three score tables for the fill — ~8 bytes
// per pair cell).
func bandBytes(s Shape, cells uint64) uint64 {
	return addSat(mulSat(cells, 4), mulSat(s.PairCells(), 8))
}

// astarBytes models AlignAStar's peak footprint: ~64 bytes per expanded or
// frontier node (map entry plus amortized heap entry) over the same
// pairwise planes. The per-node constant is why A* only wins on very thin
// bands despite expanding fewer cells.
func astarBytes(s Shape, cells uint64) uint64 {
	return addSat(mulSat(cells, 64), mulSat(s.PairCells(), 8))
}

// prefixBytes is what a band-first run may hold besides its band: the
// three through planes and three score tables of bandBytes, plus the three
// suffix planes a one-worker run keeps for A* — 12 bytes per pair cell.
func prefixBytes(s Shape) uint64 {
	return mulSat(s.PairCells(), 12)
}

// bandFirstBytes is a band-first plan's footprint: its fallback's, or the
// prefix with a band at the ceiling, whichever is larger.
func bandFirstBytes(req Request, fallback *KernelSpec, ceiling uint64) uint64 {
	return max(planEstBytes(fallback, req), addSat(prefixBytes(req.Shape), mulSat(ceiling, 4)))
}

// prefixDuration prices a band-first run's prefix: six pairwise plane
// sweeps (a forward and a backward one per pair) at the pairwise rate,
// plus the center-star-refined seed.
func prefixDuration(req Request) time.Duration {
	sweeps := estDuration(mulSat(req.Shape.PairCells(), 2), Calibration["pairwise-global"])
	return sweeps + predictedDuration(kernels["center-star-refined"], req)
}

// bandFirst reports whether a request whose dense plan is dense starts on
// the Carrillo–Lipman band instead, and the band's cell ceiling: the most
// cells whose fill at the bounded rate costs no more than the dense
// estimate and whose bytes, prefix included, fit budget. It applies to
// linear-gap requests at least MinBoundedLen long in every dimension whose
// prefix is priced below the dense run and whose dense fallback fits the
// budget itself. It reads only the shape, so planning stays O(1).
func bandFirst(req Request, gap GapModel, dense *KernelSpec, budget uint64) (uint64, bool) {
	if gap != GapLinear || !dense.Exact || dense.Space < SpacePlanes || dense.RateOnEvaluated {
		return 0, false
	}
	if min(req.Shape.NA, req.Shape.NB, req.Shape.NC) < MinBoundedLen {
		return 0, false
	}
	denseDur := predictedDuration(dense, req)
	prefix := prefixBytes(req.Shape)
	if prefixDuration(req) >= denseDur || prefix >= budget || planEstBytes(dense, req) > budget {
		return 0, false
	}
	cells := (budget - prefix) / 4
	rate := rateFor(kernels["bounded"], wavefront.Workers(req.Workers))
	if c := denseDur.Seconds() * rate * 1e6; c < float64(cells) {
		cells = uint64(c)
	}
	return cells, cells > 0
}

// RunBandFirst executes a band-first plan (pl.Fallback set). It fills the
// prefix, counts the band exactly before allocating it, and fills it when
// it holds at most pl.MaxBandCells cells; a one-worker run whose band is
// at most AStarFractionMax of the lattice hands the prefix to the A*
// frontier instead. Otherwise the fallback kernel runs with opt, which
// carries the plan's tile shape and cell width. The returned plan is pl
// when the band ran, else a copy naming the kernel that ran, with the
// switch and the band's measured cells appended to its trail.
func RunBandFirst(ctx context.Context, pl *ExecutionPlan, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, *ExecutionPlan, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, pl, err
	}
	ceiling := int64(min(pl.MaxBandCells, 1<<62))
	workers := wavefront.Workers(opt.Workers)
	fwd, bwd := pairwise.Sweeps(tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), sch, workers)
	star, upper, err := msa.CenterStarOn(tr, sch, fwd)
	if err != nil {
		fwd.Release()
		bwd.Release()
		return nil, nil, pl, err
	}
	pre, err := core.NewPrefix(tr, sch, fwd, bwd, workers, workers == 1)
	if err != nil {
		return nil, nil, pl, err
	}
	defer pre.Release()
	fallback := func(cells int64) (*alignment.Alignment, *core.PruneStats, *ExecutionPlan, error) {
		pre.Release()
		ran := pl.switched(pl.Fallback, cells)
		aln, prune, err := kernels[pl.Fallback].Run(ctx, tr, sch, opt)
		return aln, prune, ran, err
	}

	// Refinement only narrows the band, but it costs more than the six
	// sweeps. Deciding on the unrefined band's estimate spares it to every
	// triple that ends dense, at the price of triples that refinement
	// alone would have brought under the ceiling (some 55%-identity ones
	// at one worker; EXPERIMENTS F9).
	if star.Score < upper {
		if est := pre.SampleCells(star.Score, ceiling); est > ceiling {
			return fallback(est)
		}
	}
	seed, err := msa.RefineBelow(star, upper, sch)
	if err != nil {
		return nil, nil, pl, err
	}
	band := pre.Plan(seed.Score)
	planned := band.Stats()
	if planned.EvaluatedCells > ceiling {
		return fallback(planned.EvaluatedCells)
	}
	if workers == 1 && planned.Fraction() <= AStarFractionMax {
		aln, st, err := pre.AStar(ctx, opt, seed.Score)
		if err != nil {
			return nil, nil, pl, err
		}
		return aln, &st, pl.switched("astar", planned.EvaluatedCells), nil
	}
	aln, st, err := band.Fill(ctx, opt)
	if errors.Is(err, core.ErrTooLarge) {
		// The band's exact bytes, index included, overran the hard cap the
		// fallback fits.
		return fallback(planned.EvaluatedCells)
	}
	if err != nil {
		return nil, nil, pl, err
	}
	return aln, &st, pl, nil
}

// switched is a copy of a band-first plan naming the kernel that ran
// instead of the band, with the switch and the band's measured cells
// appended to its trail.
func (p *ExecutionPlan) switched(to string, bandCells int64) *ExecutionPlan {
	c := *p
	c.Algorithm, c.Fallback = to, ""
	c.Downgrades = append(append([]Downgrade(nil), p.Downgrades...),
		Downgrade{From: p.Algorithm, To: to, BandCells: uint64(bandCells)})
	return &c
}
