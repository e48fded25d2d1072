package repro

// Dispatch pin for the kernel registry: every public algorithm name, run
// through the planner-backed Align, must select its canonical kernel and
// return exactly what a direct call to that kernel returns; every auto
// scenario must resolve to the algorithm the legacy heuristic chose.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/msa"
)

type directRun func(ctx context.Context, tr Triple, sch *Scheme, opt core.Options) (*Alignment, *PruneStats, error)

func direct(f func(context.Context, Triple, *Scheme, core.Options) (*Alignment, error)) directRun {
	return func(ctx context.Context, tr Triple, sch *Scheme, opt core.Options) (*Alignment, *PruneStats, error) {
		aln, err := f(ctx, tr, sch, opt)
		return aln, nil, err
	}
}

func directHeuristic(f func(Triple, *Scheme) (*Alignment, error)) directRun {
	return func(_ context.Context, tr Triple, sch *Scheme, _ core.Options) (*Alignment, *PruneStats, error) {
		aln, err := f(tr, sch)
		return aln, nil, err
	}
}

// directBounded seeds the Carrillo–Lipman kernels with the center-star-
// refined score computed on its own, independent of the registry's shared
// pairwise planes.
func directBounded(frontier bool) directRun {
	return func(ctx context.Context, tr Triple, sch *Scheme, opt core.Options) (*Alignment, *PruneStats, error) {
		bound, err := msa.CenterStarRefined(tr, sch)
		if err != nil {
			return nil, nil, err
		}
		var aln *Alignment
		var st core.PruneStats
		if frontier {
			aln, st, err = core.AlignAStar(ctx, tr, sch, opt, bound.Score)
		} else {
			aln, st, err = core.AlignBounded(ctx, tr, sch, opt, bound.Score)
		}
		if err != nil {
			return nil, nil, err
		}
		return aln, &st, nil
	}
}

// directKernels maps every canonical algorithm onto the function that
// implements it.
var directKernels = map[Algorithm]directRun{
	AlgorithmParallel:          direct(core.AlignParallel),
	AlgorithmParallelLinear:    direct(core.AlignParallelLinear),
	AlgorithmBounded:           directBounded(false),
	AlgorithmAStar:             directBounded(true),
	AlgorithmAffineParallel:    direct(core.AlignAffineParallel),
	AlgorithmAffineLinear:      direct(core.AlignAffineLinear),
	AlgorithmCenterStar:        directHeuristic(msa.CenterStar),
	AlgorithmCenterStarRefined: directHeuristic(msa.CenterStarRefined),
	AlgorithmProgressive:       directHeuristic(msa.Progressive),
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

// TestRegistryDispatchMatchesDirectKernels runs every public algorithm
// name under every pinned scheme at one and two workers through Align,
// and asserts the canonical kernel ran (an alias runs and reports the
// kernel it names), with rows, score and PruneStats byte-identical to a
// direct call of that kernel at the same worker count.
func TestRegistryDispatchMatchesDirectKernels(t *testing.T) {
	ctx := context.Background()
	for _, w := range pinTriples(t) {
		for _, algo := range Algorithms() {
			want := canonical(algo)
			run, ok := directKernels[want]
			if !ok {
				t.Fatalf("%s: no direct kernel for canonical %s", algo, want)
			}
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/workers=%d", w.name, algo, workers)
				wantAln, wantPrune, wantErr := run(ctx, w.tr, w.sch, core.Options{Workers: workers})
				res, err := Align(w.tr, Options{Algorithm: algo, Scheme: w.sch, Workers: workers})
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: err = %v, direct err = %v", name, err, wantErr)
				}
				if err != nil {
					continue
				}
				if res.Algorithm != want {
					t.Errorf("%s: ran %s, want %s", name, res.Algorithm, want)
				}
				if res.Score != wantAln.Score {
					t.Errorf("%s: score %d, direct %d", name, res.Score, wantAln.Score)
				}
				ra, rb, rc := res.Rows()
				da, db, dc := wantAln.Rows()
				if ra != da || rb != db || rc != dc {
					t.Errorf("%s: rows diverge from the direct call", name)
				}
				if (res.Prune != nil) != (wantPrune != nil) {
					t.Errorf("%s: prune stats presence diverges", name)
				} else if res.Prune != nil && *res.Prune != *wantPrune {
					t.Errorf("%s: prune stats %+v, direct %+v", name, *res.Prune, *wantPrune)
				}
				if res.Plan == nil || res.Plan.Algorithm != string(want) {
					t.Errorf("%s: Result.Plan missing or wrong: %+v", name, res.Plan)
				}
			}
		}
	}
}

// legacyResolveAlgorithm is the pre-planner auto heuristic, updated for
// the selection changes made since: the lattice estimate halves when the
// scheme's score bound admits 16-bit cells, and the sequential kernels it
// chose at one worker are folded into their blocked siblings, so the
// worker count no longer changes the answer.
func legacyResolveAlgorithm(tr Triple, sch *Scheme, opt Options) Algorithm {
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
		return AlgorithmAffineParallel
	case sch.Affine():
		return AlgorithmAffineLinear
	case lattice <= maxB:
		return AlgorithmParallel
	default:
		return AlgorithmParallelLinear
	}
}

// TestPlannerAutoMatchesLegacyResolve pins automatic resolution through
// the facade — at one worker (a wide batch item or a one-core host) and at
// two — to the legacy heuristic across memory-cap scenarios.
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
		for _, workers := range []int{1, 2} {
			opt := tc.opt
			opt.Workers = workers
			want := legacyResolveAlgorithm(tc.tr, tc.sch, opt)
			pl, err := PlanAlign(tc.tr, opt)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			if pl.Algorithm != string(want) {
				t.Errorf("%s/workers=%d: planned %s, legacy resolved %s", tc.name, workers, pl.Algorithm, want)
			}
		}
	}
}
