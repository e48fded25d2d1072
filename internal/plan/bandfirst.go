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

// bandBytes models AlignBounded's peak footprint for a band of the given
// stored cells: 4 bytes per cell plus the three through planes of the
// bound (4 bytes per pair cell). The fill reads C's query profile, whose
// σ·(p+1) scores do not register at this scale.
func bandBytes(s Shape, cells uint64) uint64 {
	return addSat(mulSat(cells, 4), mulSat(s.PairCells(), 4))
}

// prefixBytes is what a band-first run may hold besides its band: 8 bytes
// per pair cell, the six planes a forward and a suffix sweep per pair once
// held. The run now holds three through planes and two rolling rows per
// pair; the six-plane price is kept so that no plan moves.
func prefixBytes(s Shape) uint64 {
	return mulSat(s.PairCells(), 8)
}

// bandFirstBytes is a band-first plan's footprint: its fallback's, or the
// prefix with a band at the ceiling, whichever is larger.
func bandFirstBytes(req Request, fallback *KernelSpec, ceiling uint64) uint64 {
	return max(planEstBytes(fallback, req), addSat(prefixBytes(req.Shape), mulSat(ceiling, 4)))
}

// prefixDuration prices a band-first run's prefix: six full pairwise
// plane sweeps (a forward and a backward one per pair) at the pairwise
// rate, plus the center-star-refined seed. The sweeps now fill only the
// bands their bound admits, so this is an upper bound, kept as the
// full-plane price so that no plan moves.
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

// RunBandFirst executes a plan on the Carrillo–Lipman prefix, the one way
// into the bounded kernel. It sweeps the forward planes, seeds them with
// center-star, adds the suffix sweeps in the bands that seed admits,
// refines the seed, and counts the band exactly before allocating it.
//
// A band-first plan (pl.Fallback set) fills the band when it holds at most
// pl.MaxBandCells cells; otherwise the fallback kernel runs with opt,
// which carries the plan's tile shape and cell width. The returned plan is
// pl when the band ran, else a copy naming the kernel that ran, with the
// switch and the band's measured cells appended to its trail.
//
// A plan with no fallback is an explicit bounded request: it fills the
// band whatever the band holds, and a band over the hard cap returns
// core.ErrTooLarge.
func RunBandFirst(ctx context.Context, pl *ExecutionPlan, tr seq.Triple, sch *scoring.Scheme, opt core.Options) (*alignment.Alignment, *core.PruneStats, *ExecutionPlan, error) {
	if err := tr.Validate(); err != nil {
		return nil, nil, pl, err
	}
	choose := pl.Fallback != ""
	ceiling := int64(min(pl.MaxBandCells, 1<<62))
	workers := wavefront.Workers(opt.Workers)
	fwd := pairwise.Forwards(tr.A.Codes(), tr.B.Codes(), tr.C.Codes(), sch, workers)
	star, upper, err := msa.CenterStarOn(tr, sch, fwd)
	if err != nil {
		fwd.Release()
		return nil, nil, pl, err
	}
	// Every bound below is at least center-star's, so the suffix sweeps
	// run in the bands it admits.
	pre, err := core.NewPrefix(tr, sch, fwd, star.Score, workers)
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
	if choose && star.Score < upper {
		if est := pre.SampleCells(star.Score, ceiling); est > ceiling {
			return fallback(est)
		}
	}
	seed, err := msa.RefineBelow(ctx, star, upper, sch)
	if err != nil {
		return nil, nil, pl, err
	}
	band := pre.Plan(seed.Score)
	if planned := band.Stats(); choose && planned.EvaluatedCells > ceiling {
		return fallback(planned.EvaluatedCells)
	}
	aln, st, err := band.Fill(ctx, opt)
	if choose && errors.Is(err, core.ErrTooLarge) {
		// The band's exact bytes, index included, overran the hard cap the
		// fallback fits.
		return fallback(st.EvaluatedCells)
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
