package repro

// Diff-pin for the planner refactor: a copy of the algorithm switch and
// auto-resolution heuristic that used to live in tsa.go, run side by side
// with the registry dispatch that replaced them. Every (Algorithm, Scheme)
// pair must select the same kernel and produce a byte-identical alignment;
// every auto scenario must resolve to the same algorithm the old heuristic
// chose. Both copies are updated only together with a deliberate change
// to selection semantics.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/msa"
	"repro/internal/plan"
)

// legacyResolveAlgorithm is the pre-planner auto heuristic — updated
// deliberately for the selection-semantics changes the planner made since:
// the lattice estimate halves when the scheme's score bound admits 16-bit
// cells, and the linear-gap primaries are full and parallel, which run the
// lane-packed interior the retired -packed names used to select.
func legacyResolveAlgorithm(tr Triple, sch *Scheme, opt Options, parallel bool) Algorithm {
	if opt.Algorithm != AlgorithmAuto {
		return opt.Algorithm
	}
	maxB := opt.MaxBytes
	if maxB <= 0 {
		maxB = core.DefaultMaxBytes
	}
	lattice := core.FullMatrixBytes(tr)
	if !sch.Affine() && core.Int16Safe(tr, sch) {
		lattice /= 2
	}
	switch {
	case sch.Affine() && 7*core.FullMatrixBytes(tr) <= maxB:
		if parallel {
			return AlgorithmAffineParallel
		}
		return AlgorithmAffine
	case sch.Affine():
		return AlgorithmAffineLinear
	case lattice <= maxB:
		if parallel {
			return AlgorithmParallel
		}
		return AlgorithmFull
	default:
		if parallel {
			return AlgorithmParallelLinear
		}
		return AlgorithmLinear
	}
}

// legacyRunAlgorithm is the pre-planner dispatch switch, with the alias
// names routed to the kernels they now alias (see aliasOf): full-packed
// and parallel-packed to the lane-packed full and parallel, diagonal to
// parallel, and the retired dense pruned fills to the bounded band.
func legacyRunAlgorithm(ctx context.Context, algo Algorithm, tr Triple, sch *Scheme, copt core.Options) (aln *Alignment, prune *PruneStats, err error) {
	switch algo {
	case AlgorithmFull, AlgorithmFullPacked:
		aln, err = core.AlignFull(ctx, tr, sch, copt)
	case AlgorithmParallel, AlgorithmParallelPacked, AlgorithmDiagonal:
		aln, err = core.AlignParallel(ctx, tr, sch, copt)
	case AlgorithmLinear:
		aln, err = core.AlignLinear(ctx, tr, sch, copt)
	case AlgorithmParallelLinear:
		aln, err = core.AlignParallelLinear(ctx, tr, sch, copt)
	case AlgorithmAffine:
		aln, err = core.AlignAffine(ctx, tr, sch, copt)
	case AlgorithmAffineLinear:
		aln, err = core.AlignAffineLinear(ctx, tr, sch, copt)
	case AlgorithmAffineParallel:
		aln, err = core.AlignAffineParallel(ctx, tr, sch, copt)
	case AlgorithmPruned, AlgorithmPrunedParallel, AlgorithmBounded, AlgorithmAStar:
		var bound *Alignment
		bound, err = msa.CenterStarRefined(tr, sch)
		if err != nil {
			break
		}
		var st core.PruneStats
		if algo == AlgorithmAStar {
			aln, st, err = core.AlignAStar(ctx, tr, sch, copt, bound.Score)
		} else {
			aln, st, err = core.AlignBounded(ctx, tr, sch, copt, bound.Score)
		}
		if err == nil {
			prune = &st
		}
	case AlgorithmCenterStar:
		aln, err = msa.CenterStar(tr, sch)
	case AlgorithmCenterStarRefined:
		aln, err = msa.CenterStarRefined(tr, sch)
	case AlgorithmProgressive:
		aln, err = msa.Progressive(tr, sch)
	default:
		return nil, nil, fmt.Errorf("repro: unknown algorithm %q", algo)
	}
	return aln, prune, err
}

// pinTriples are the workloads the pin runs over: a DNA triple under the
// linear default and an affine override, and a protein triple under
// BLOSUM62 (affine).
func pinTriples(t *testing.T) []struct {
	name string
	tr   Triple
	sch  *Scheme
} {
	t.Helper()
	g := NewGenerator(DNA, 41)
	dna := g.RelatedTriple(14, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
	dnaSch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	dnaAff, err := dnaSch.WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	gp := NewGenerator(Protein, 43)
	prot := gp.RelatedTriple(12, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
	b62, ok := SchemeByName("blosum62")
	if !ok {
		t.Fatal("blosum62 scheme missing")
	}
	return []struct {
		name string
		tr   Triple
		sch  *Scheme
	}{
		{"dna-linear", dna, dnaSch},
		{"dna-affine", dna, dnaAff},
		{"protein-blosum62", prot, b62},
	}
}

// TestRegistryDispatchMatchesLegacySwitch runs every explicit algorithm
// under every pinned scheme through both the legacy switch and the
// planner-backed Align, asserting identical selection (an alias runs and
// reports its canonical kernel) and byte-identical alignments.
func TestRegistryDispatchMatchesLegacySwitch(t *testing.T) {
	ctx := context.Background()
	for _, w := range pinTriples(t) {
		for _, algo := range Algorithms() {
			name := w.name + "/" + string(algo)
			opt := Options{Algorithm: algo, Scheme: w.sch}
			wantAln, wantPrune, wantErr := legacyRunAlgorithm(ctx, algo, w.tr, w.sch, core.Options{})
			res, err := Align(w.tr, opt)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, legacy err = %v", name, err, wantErr)
			}
			if err != nil {
				continue
			}
			want := canonical(algo)
			if res.Algorithm != want {
				t.Errorf("%s: ran %s, want %s", name, res.Algorithm, want)
			}
			if res.Score != wantAln.Score {
				t.Errorf("%s: score %d, legacy %d", name, res.Score, wantAln.Score)
			}
			ra, rb, rc := res.Rows()
			la, lb, lc := wantAln.Rows()
			if ra != la || rb != lb || rc != lc {
				t.Errorf("%s: rows diverge from the legacy switch", name)
			}
			if (res.Prune != nil) != (wantPrune != nil) {
				t.Errorf("%s: prune stats presence diverges", name)
			} else if res.Prune != nil && *res.Prune != *wantPrune {
				t.Errorf("%s: prune stats %+v, legacy %+v", name, *res.Prune, *wantPrune)
			}
			if res.Plan == nil || res.Plan.Algorithm != string(want) {
				t.Errorf("%s: Result.Plan missing or wrong: %+v", name, res.Plan)
			}
		}
	}
}

// TestPlannerAutoMatchesLegacyResolve pins automatic resolution — both
// parallel (the Align path) and sequential (the wide-batch path) — to the
// legacy heuristic across memory-cap scenarios.
func TestPlannerAutoMatchesLegacyResolve(t *testing.T) {
	g := NewGenerator(DNA, 47)
	big := g.RelatedTriple(96, MutationModel{SubstitutionRate: 0.2})
	small := g.RelatedTriple(12, MutationModel{SubstitutionRate: 0.2})
	dnaSch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := dnaSch.WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   Triple
		sch  *Scheme
		opt  Options
	}{
		{"small-linear", small, dnaSch, Options{}},
		{"small-affine", small, aff, Options{Scheme: aff}},
		{"big-capped", big, dnaSch, Options{MaxBytes: 1 << 20}},
		{"big-affine-capped", big, aff, Options{Scheme: aff, MaxBytes: 4 << 20}},
	}
	for _, tc := range cases {
		for _, parallel := range []bool{true, false} {
			want := legacyResolveAlgorithm(tc.tr, tc.sch, tc.opt, parallel)
			pl, _, err := plan.Resolve(planRequest(tc.tr, tc.sch, tc.opt, parallel))
			if err != nil {
				t.Fatalf("%s/parallel=%v: %v", tc.name, parallel, err)
			}
			if pl.Algorithm != string(want) {
				t.Errorf("%s/parallel=%v: planned %s, legacy resolved %s", tc.name, parallel, pl.Algorithm, want)
			}
		}
	}
}
