package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

// aliasOf maps each alias in Algorithms() onto the kernel it runs; every
// other name is its own canonical kernel.
var aliasOf = map[Algorithm]Algorithm{
	AlgorithmFull:           AlgorithmParallel,
	AlgorithmFullPacked:     AlgorithmParallel,
	AlgorithmParallelPacked: AlgorithmParallel,
	AlgorithmDiagonal:       AlgorithmParallel,
	AlgorithmLinear:         AlgorithmParallelLinear,
	AlgorithmAffine:         AlgorithmAffineParallel,
	AlgorithmPruned:         AlgorithmBounded,
	AlgorithmPrunedParallel: AlgorithmBounded,
	AlgorithmAStar:          AlgorithmBounded,
}

func canonical(a Algorithm) Algorithm {
	if to, ok := aliasOf[a]; ok {
		return to
	}
	return a
}

// TestAlgorithmsResolveAndAgree runs every public algorithm name under a
// linear-gap DNA scheme and an affine protein scheme. Each name must
// parse, plan and run as its canonical kernel, and every exact kernel must
// return the reference optimum for its gap model: the one-worker
// AlignParallel score and byte-identical rows for the linear-gap kernels
// (the triple is small enough that the linear-space kernels solve it in
// one full-matrix leaf), the one-worker AlignAffineParallel score for the
// affine kernels. Automatic selection must pick the band when the
// identity probe predicts it faster.
func TestAlgorithmsResolveAndAgree(t *testing.T) {
	ctx := context.Background()
	dnaSch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	b62, ok := SchemeByName("blosum62")
	if !ok {
		t.Fatal("blosum62 scheme missing")
	}
	mm := MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05}
	dna := NewGenerator(DNA, 41).RelatedTriple(14, mm)
	prot := NewGenerator(Protein, 43).RelatedTriple(12, mm)

	wantLinear, err := core.AlignParallel(ctx, dna, dnaSch, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantAffine, err := core.AlignAffineParallel(ctx, prot, b62, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruneStats := map[Algorithm]bool{AlgorithmBounded: true}

	for _, w := range []struct {
		name string
		tr   Triple
		sch  *Scheme
	}{{"dna-linear", dna, dnaSch}, {"protein-affine", prot, b62}} {
		for _, algo := range Algorithms() {
			name := w.name + "/" + string(algo)
			if got, err := ParseAlgorithm(string(algo)); err != nil || got != algo {
				t.Fatalf("%s: ParseAlgorithm = %q, %v", name, got, err)
			}
			want := canonical(algo)
			opt := Options{Algorithm: algo, Scheme: w.sch}
			pl, err := PlanAlign(w.tr, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pl.Algorithm != string(want) {
				t.Errorf("%s: planned %s, want %s", name, pl.Algorithm, want)
			}
			res, err := Align(w.tr, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Algorithm != want || res.Plan == nil || res.Plan.Algorithm != string(want) {
				t.Errorf("%s: ran %s with plan %+v, want %s", name, res.Algorithm, res.Plan, want)
			}
			if (res.Prune != nil) != pruneStats[want] {
				t.Errorf("%s: prune stats presence %v, want %v", name, res.Prune != nil, pruneStats[want])
			}
			spec, _ := plan.Lookup(string(algo))
			if !spec.Exact {
				continue
			}
			switch {
			case w.sch == dnaSch && spec.Gaps == plan.GapLinear:
				if res.Score != wantLinear.Score {
					t.Errorf("%s: score %d, reference %d", name, res.Score, wantLinear.Score)
				}
				ra, rb, rc := res.Rows()
				fa, fb, fc := wantLinear.Rows()
				if ra != fa || rb != fb || rc != fc {
					t.Errorf("%s: rows diverge from the reference", name)
				}
			case w.sch == b62 && spec.Gaps == plan.GapAffine:
				if res.Score != wantAffine.Score {
					t.Errorf("%s: score %d, reference %d", name, res.Score, wantAffine.Score)
				}
			}
		}
	}

	// The cap scenarios of the pre-planner heuristic are pinned by
	// TestPlannerAutoMatchesLegacyResolve and
	// plan.TestAutoMatchesLegacyHeuristic; the band is the one automatic
	// choice that heuristic never made.
	similar := NewGenerator(DNA, 47).RelatedTriple(300, MutationModel{SubstitutionRate: 0.08})
	for _, workers := range []int{1, 2} {
		pl, err := PlanAlign(similar, Options{Workers: workers, MaxBytes: 32 << 20})
		if err != nil {
			t.Fatalf("similar-capped/workers=%d: %v", workers, err)
		}
		if pl.Algorithm != string(AlgorithmBounded) {
			t.Errorf("similar-capped/workers=%d: planned %s, want %s", workers, pl.Algorithm, AlgorithmBounded)
		}
	}
}
