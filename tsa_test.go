package repro

import (
	"errors"
	"strings"
	"testing"
)

func mustTriple(t *testing.T, a, b, c string) Triple {
	t.Helper()
	tr, err := NewTriple(a, b, c, DNA)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAlignDefaultOptions(t *testing.T) {
	tr := mustTriple(t, "ACGTACGT", "ACGACGT", "ACGTACG")
	res, err := Align(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmParallel {
		t.Errorf("auto algorithm = %q, want parallel", res.Algorithm)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestAlignAllAlgorithmsAgree(t *testing.T) {
	g := NewGenerator(DNA, 101)
	tr := g.RelatedTriple(30, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
	exact := []Algorithm{
		AlgorithmFull, AlgorithmParallel, AlgorithmLinear, AlgorithmParallelLinear,
		AlgorithmDiagonal, AlgorithmPruned, AlgorithmPrunedParallel,
	}
	var want int32
	for i, algo := range exact {
		res, err := Align(tr, Options{Algorithm: algo, Workers: 3, BlockSize: 8})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if i == 0 {
			want = res.Score
		} else if res.Score != want {
			t.Fatalf("%s score %d != full %d", algo, res.Score, want)
		}
		if algo == AlgorithmPruned || algo == AlgorithmPrunedParallel {
			if res.Prune == nil {
				t.Fatal("pruned run missing PruneStats")
			}
			if res.Prune.EvaluatedCells <= 0 || res.Prune.EvaluatedCells > res.Prune.TotalCells {
				t.Fatalf("bad prune stats: %+v", res.Prune)
			}
		} else if res.Prune != nil {
			t.Fatalf("%s unexpectedly carries PruneStats", algo)
		}
	}
	for _, algo := range []Algorithm{AlgorithmCenterStar, AlgorithmCenterStarRefined, AlgorithmProgressive} {
		res, err := Align(tr, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Score > want {
			t.Fatalf("%s heuristic score %d beats optimum %d", algo, res.Score, want)
		}
	}
}

func TestAlignUnknownAlgorithm(t *testing.T) {
	tr := mustTriple(t, "AC", "AC", "AC")
	if _, err := Align(tr, Options{Algorithm: "nonsense"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlignAutoFallsBackToLinear(t *testing.T) {
	g := NewGenerator(DNA, 5)
	tr := g.RelatedTriple(64, MutationModel{SubstitutionRate: 0.1})
	// At 1 MiB the 32-bit lattice (~1.1 MB) no longer fits, but the
	// negotiated 16-bit lattice (~0.55 MB) does: the planner keeps the
	// packed lattice kernel at half width instead of downgrading.
	narrow, err := Align(tr, Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Algorithm != AlgorithmParallel {
		t.Fatalf("auto with an int16-fitting cap chose %q", narrow.Algorithm)
	}
	if narrow.Plan == nil || narrow.Plan.CellWidthBits != 16 {
		t.Fatalf("auto with an int16-fitting cap planned width %+v, want 16", narrow.Plan)
	}
	// Cap memory below even the 16-bit lattice but above the linear planes.
	res, err := Align(tr, Options{MaxBytes: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmParallelLinear {
		t.Fatalf("auto under memory pressure chose %q", res.Algorithm)
	}
	ref, err := Align(tr, Options{Algorithm: AlgorithmFull})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != ref.Score {
		t.Fatalf("fallback score %d != %d", res.Score, ref.Score)
	}
}

func TestAlignMemoryCapError(t *testing.T) {
	tr := mustTriple(t, "ACGTACGTAC", "ACGTACGTAC", "ACGTACGTAC")
	_, err := Align(tr, Options{Algorithm: AlgorithmFull, MaxBytes: 64})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestAlignProteinDefaults(t *testing.T) {
	a, err := NewSequence("h1", "MKTAYIAKQR", Protein)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSequence("h2", "MKTAYIAKQR", Protein)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSequence("h3", "MKTAYLAKQR", Protein)
	if err != nil {
		t.Fatal(err)
	}
	// Default protein scheme is affine BLOSUM62, exercised via the affine
	// algorithm.
	res, err := Align(Triple{A: a, B: b, C: c}, Options{Algorithm: AlgorithmAffine})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Columns() != 10 {
		t.Fatalf("columns = %d, want 10 (no gaps needed)", res.Columns())
	}
}

func TestReadTripleFASTARoundTrip(t *testing.T) {
	in := ">a\nACGT\n>b\nACG\n>c\nAGT\n"
	tr, err := ReadTripleFASTA(strings.NewReader(in), DNA)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := WriteFASTA(&out, []*Sequence{tr.A, tr.B, tr.C}, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ">b\nACG\n") {
		t.Fatalf("round trip lost record:\n%s", out.String())
	}
}

func TestDefaultScheme(t *testing.T) {
	for _, alpha := range []*Alphabet{DNA, RNA, Protein} {
		s, err := DefaultScheme(alpha)
		if err != nil || s == nil {
			t.Errorf("DefaultScheme(%s): %v", alpha.Name(), err)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	if _, ok := SchemeByName("blosum62"); !ok {
		t.Error("blosum62 not found")
	}
	if _, ok := SchemeByName("bogus"); ok {
		t.Error("bogus scheme found")
	}
}

func TestAlgorithmsList(t *testing.T) {
	list := Algorithms()
	if len(list) != 17 {
		t.Fatalf("Algorithms() has %d entries, want 17", len(list))
	}
	tr := mustTriple(t, "ACGT", "ACG", "AGT")
	for _, algo := range list {
		if _, err := Align(tr, Options{Algorithm: algo}); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestNewTripleValidation(t *testing.T) {
	if _, err := NewTriple("AC", "A!", "AC", DNA); err == nil {
		t.Fatal("invalid residue accepted")
	}
}

func TestAffineFamilyAgrees(t *testing.T) {
	g := NewGenerator(DNA, 202)
	tr := g.RelatedTriple(18, MutationModel{SubstitutionRate: 0.25, InsertionRate: 0.05, DeletionRate: 0.05})
	sch, ok := SchemeByName("dna")
	if !ok {
		t.Fatal("dna scheme missing")
	}
	aff, err := sch.WithGaps(-5, -1)
	if err != nil {
		t.Fatal(err)
	}
	var want int32
	for i, algo := range []Algorithm{AlgorithmAffine, AlgorithmAffineLinear, AlgorithmAffineParallel} {
		res, err := Align(tr, Options{Algorithm: algo, Scheme: aff, Workers: 3, BlockSize: 5})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if i == 0 {
			want = res.Score
		} else if res.Score != want {
			t.Fatalf("%s score %d != affine %d", algo, res.Score, want)
		}
	}
}

func TestAlignAutoHonorsAffineScheme(t *testing.T) {
	// Protein's default scheme (BLOSUM62) is affine, so Auto must run an
	// affine algorithm instead of silently dropping GapOpen.
	a, err := NewSequence("a", "MKTAYIAKQR", Protein)
	if err != nil {
		t.Fatal(err)
	}
	tr := Triple{A: a, B: a, C: a}
	res, err := Align(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmAffineParallel {
		t.Fatalf("auto for affine scheme chose %q, want affine-parallel", res.Algorithm)
	}
	ref, err := Align(tr, Options{Algorithm: AlgorithmAffine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != ref.Score {
		t.Fatalf("auto affine %d != affine %d", res.Score, ref.Score)
	}
	// Under a tight memory cap Auto falls to the affine linear-space variant.
	g := NewGenerator(Protein, 3)
	big := g.RelatedTriple(48, MutationModel{SubstitutionRate: 0.1})
	capped, err := Align(big, Options{MaxBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Algorithm != AlgorithmAffineLinear {
		t.Fatalf("auto under cap chose %q, want affine-linear", capped.Algorithm)
	}
}
