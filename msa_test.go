package repro

import (
	"context"
	"hash/fnv"
	"testing"

	"repro/internal/mat"
	"repro/internal/msa"
	"repro/internal/pairwise"
)

func msaFamily(seed int64, count, length int, sub float64) []*Sequence {
	g := NewGenerator(DNA, seed)
	return g.RelatedFamily(count, length, MutationModel{
		SubstitutionRate: sub, InsertionRate: sub / 4, DeletionRate: sub / 4,
	})
}

func TestAlignMsaEndToEnd(t *testing.T) {
	for n := 2; n <= 8; n++ {
		fam := msaFamily(int64(100+n), n, 30, 0.15)
		res, err := AlignMSA(context.Background(), fam, MSAOptions{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Profile.NumRows() != n {
			t.Fatalf("n=%d: %d rows", n, res.Profile.NumRows())
		}
		if err := res.Profile.Validate(); err != nil {
			t.Fatalf("n=%d: invalid profile: %v", n, err)
		}
		for i, s := range res.Profile.Seqs {
			if s != fam[i] {
				t.Fatalf("n=%d: row %d is %q, want input order", n, i, s.Name())
			}
		}
		if got := res.Profile.SPScoreFor(DefaultSchemeMust(t)); got != res.Score {
			t.Fatalf("n=%d: reported score %d, recomputed %d", n, res.Score, got)
		}
		if res.OptimalityGap < 0 {
			t.Fatalf("n=%d: score %d beats Carrillo-Lipman bound %d", n, res.Score, res.UpperBound)
		}
		if res.Tree == nil || res.Tree.NumLeaves() != n {
			t.Fatalf("n=%d: missing or wrong guide tree", n)
		}
		if len(res.Merges) == 0 {
			t.Fatalf("n=%d: no merges recorded", n)
		}
	}
}

func DefaultSchemeMust(t *testing.T) *Scheme {
	t.Helper()
	sch, err := DefaultScheme(DNA)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestAlignMsaTripleBitIdenticalToAlign(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := NewGenerator(DNA, 200+seed)
		tr := g.RelatedTriple(25+int(seed)*7, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
		direct, err := Align(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := AlignMSA(context.Background(), []*Sequence{tr.A, tr.B, tr.C}, MSAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != direct.Score {
			t.Fatalf("seed %d: msa score %d, align score %d", seed, res.Score, direct.Score)
		}
		wantRows := direct.Alignment.Multi().RowStrings()
		gotRows := res.Profile.RowStrings()
		for i := range wantRows {
			if gotRows[i] != wantRows[i] {
				t.Fatalf("seed %d: msa row %d differs from align:\n%s\n%s", seed, i, gotRows[i], wantRows[i])
			}
		}
	}
}

// TestAlignMsaBeatsCenterStarSuite is the committed property suite: over
// 20+ random 4-8 sequence families the 3-way-core progressive result never
// scores below the pairwise center-star baseline it replaced.
func TestAlignMsaBeatsCenterStarSuite(t *testing.T) {
	sch := DefaultSchemeMust(t)
	families := 0
	for seed := int64(0); seed < 22; seed++ {
		n := 4 + int(seed)%5 // 4..8
		fam := msaFamily(300+seed, n, 24+int(seed%4)*8, 0.25)
		res, err := AlignMSA(context.Background(), fam, MSAOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cs, err := msa.CenterStarN(fam, sch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Score < cs.Score {
			t.Fatalf("seed %d (n=%d): progressive %d below center-star %d", seed, n, res.Score, cs.Score)
		}
		if res.CenterStarScore != cs.Score {
			t.Fatalf("seed %d: recorded baseline %d, recomputed %d", seed, res.CenterStarScore, cs.Score)
		}
		families++
	}
	if families < 20 {
		t.Fatalf("suite covered only %d families", families)
	}
}

// TestAlignMsaMergesRunThroughBatchPath pins the scheduler wiring: a family
// whose first guide-tree level holds two independent triples must fan them
// through one AlignBatchItemsContext submission (BatchSize > 1), and the
// serial knob must produce the same alignment without the batch path.
func TestAlignMsaMergesRunThroughBatchPath(t *testing.T) {
	fam := msaFamily(77, 6, 40, 0.2)
	fanned, err := AlignMSA(context.Background(), fam, MSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fanned.BatchedMerges < 2 {
		t.Fatalf("BatchedMerges = %d, want >= 2 for a 6-sequence family", fanned.BatchedMerges)
	}
	sawBatch := false
	for _, m := range fanned.Merges {
		if m.NWay == 3 && m.BatchSize > 1 {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatal("no 3-way merge recorded a shared batch submission")
	}
	serial, err := AlignMSA(context.Background(), fam, MSAOptions{SerialMerges: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.BatchedMerges != 0 {
		t.Fatalf("serial run recorded %d batched merges", serial.BatchedMerges)
	}
	if serial.Score != fanned.Score {
		t.Fatalf("serial score %d != fanned score %d", serial.Score, fanned.Score)
	}
}

func TestAlignMsaBudgetSplit(t *testing.T) {
	fam := msaFamily(91, 6, 60, 0.2)
	res, err := AlignMSA(context.Background(), fam, MSAOptions{
		Options: Options{MaxMemoryBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every 3-way merge planned under a slice of the request budget.
	for _, m := range res.Merges {
		if m.NWay == 3 && m.Plan == nil {
			t.Fatalf("merge %v has no plan", m.Members)
		}
	}
}

func TestAlignMsaRejectsBadInput(t *testing.T) {
	g := NewGenerator(DNA, 5)
	one := []*Sequence{g.Random("a", 10)}
	if _, err := AlignMSA(context.Background(), one, MSAOptions{}); err == nil {
		t.Fatal("single sequence accepted")
	}
	if _, err := AlignMSA(context.Background(), nil, MSAOptions{}); err == nil {
		t.Fatal("empty family accepted")
	}
	p := NewGenerator(Protein, 6)
	mixed := []*Sequence{g.Random("a", 10), p.Random("b", 10)}
	if _, err := AlignMSA(context.Background(), mixed, MSAOptions{}); err == nil {
		t.Fatal("mixed alphabets accepted")
	}
}

func TestAlignMsaCancelled(t *testing.T) {
	fam := msaFamily(13, 6, 30, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AlignMSA(ctx, fam, MSAOptions{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestPlanMsaShape(t *testing.T) {
	fam := msaFamily(23, 7, 50, 0.2)
	mp, err := PlanMSA(fam, MSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.NumSequences != 7 {
		t.Fatalf("NumSequences = %d", mp.NumSequences)
	}
	if len(mp.Merges) != mp.Tree.NumMerges() {
		t.Fatalf("%d merge plans for %d scheduled merges", len(mp.Merges), mp.Tree.NumMerges())
	}
	if mp.PeakLevelBytes == 0 || mp.TotalEstCells == 0 {
		t.Fatalf("empty estimates: %+v", mp)
	}
	for _, m := range mp.Merges {
		if m.NWay == 3 && m.Plan == nil {
			t.Fatalf("3-way merge %v without a plan", m.Members)
		}
		if m.EstBytes == 0 {
			t.Fatalf("merge %v has no byte estimate", m.Members)
		}
	}
}

func TestAlignMsaAffineScheme(t *testing.T) {
	g := NewGenerator(Protein, 31)
	fam := g.RelatedFamily(5, 25, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.05, DeletionRate: 0.05})
	res, err := AlignMSA(context.Background(), fam, MSAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.OptimalityGap < 0 {
		t.Fatalf("affine score %d beats bound %d", res.Score, res.UpperBound)
	}
}

// msaParentCase builds case c of the 20-family suite: N = 3…8, the first
// ten DNA (even cases under -4/-1 affine gaps, odd ones under the default
// linear scheme), the last ten protein under BLOSUM62's -11/-1.
func msaParentCase(t *testing.T, c int) ([]*Sequence, *Scheme) {
	t.Helper()
	n := 3 + c%6
	if c < 10 {
		sch := DefaultSchemeMust(t)
		if c%2 == 0 {
			aff, err := sch.WithGaps(-4, -1)
			if err != nil {
				t.Fatal(err)
			}
			sch = aff
		}
		return msaFamily(900+int64(c), n, 28+2*c, 0.2), sch
	}
	sch, err := DefaultScheme(Protein)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(Protein, 900+int64(c))
	return g.RelatedFamily(n, 30+2*c, MutationModel{SubstitutionRate: 0.2, InsertionRate: 0.04, DeletionRate: 0.04}), sch
}

// rowsDigest is the FNV-1a hash of the aligned rows, one per line.
func rowsDigest(rows []string) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// msaParentGolden holds, per msaParentCase, the UpperBound,
// CenterStarScore, Score and rowsDigest of AlignMSA as it ran before one
// set of pair optima served both the bound and center-star (each pair's
// full Gotoh fill with traceback, run once per use).
var msaParentGolden = [20]struct {
	upper, center, score mat.Score
	rows                 uint64
}{
	{30, 24, 24, 0xf045c6a0b5ea4f94},
	{114, 90, 108, 0x5b72d2e7e287e8b1},
	{140, 34, 34, 0xd572c574fff0d2a8},
	{321, 231, 252, 0x7cb4beef8bba7713},
	{338, 91, 109, 0xb2e276c158d15491},
	{910, 697, 808, 0x300103fc5b968645},
	{50, 47, 47, 0xf6f01f7866a8cbab},
	{195, 168, 180, 0x18d9cf0302da091c},
	{185, 29, 42, 0x0e417f903bfadec1},
	{557, 347, 491, 0x4cc9074b77253e6a},
	{1599, 699, 919, 0xcff083d06bd7b6b8},
	{3368, 2925, 2925, 0x2b784a272791a8b0},
	{176, 151, 151, 0xc9d6007cc97057cb},
	{608, 399, 500, 0x93e2db1783252ec6},
	{1149, 817, 817, 0xee02a3d93b135467},
	{1756, 1165, 1401, 0x9e919774809bbe73},
	{3199, 2697, 2697, 0xeaa7885e71356e6b},
	{3028, 2114, 2114, 0xd9e8422736edc585},
	{292, 260, 260, 0xcebbecaab0534d9f},
	{773, 538, 668, 0x400cc38d976de7e1},
}

// TestAlignMsaMatchesParentConstruction pins AlignMSA on 20 DNA and
// BLOSUM62 families with N = 3…8 to the construction that computed every
// pair optimum with its own full fill: UpperBound equals the sum of
// pairwise.GlobalAffine (GlobalScore under linear gaps) scores over all
// pairs, CenterStarScore equals center-star over those optima, and
// CenterStarScore, Score and the rows equal the recorded results.
func TestAlignMsaMatchesParentConstruction(t *testing.T) {
	for c, want := range msaParentGolden {
		fam, sch := msaParentCase(t, c)
		res, err := AlignMSA(context.Background(), fam, MSAOptions{Options: Options{Scheme: sch}})
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		opt := make([][]mat.Score, len(fam))
		for i := range opt {
			opt[i] = make([]mat.Score, len(fam))
		}
		var bound mat.Score
		for i := range fam {
			for j := i + 1; j < len(fam); j++ {
				a, b := fam[i].Codes(), fam[j].Codes()
				s := pairwise.GlobalScore(a, b, sch)
				if sch.Affine() {
					s = pairwise.GlobalAffine(a, b, sch).Score
				}
				opt[i][j], opt[j][i] = s, s
				bound += s
			}
		}
		if res.UpperBound != bound || bound != want.upper {
			t.Fatalf("case %d: UpperBound %d, sum of pair optima %d, recorded %d", c, res.UpperBound, bound, want.upper)
		}
		if len(fam) >= 4 {
			cs, err := msa.CenterStarFromOptima(fam, sch, opt)
			if err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
			if res.CenterStarScore != cs.Score {
				t.Fatalf("case %d: CenterStarScore %d, center-star over full-fill optima %d", c, res.CenterStarScore, cs.Score)
			}
		}
		if res.CenterStarScore != want.center || res.Score != want.score {
			t.Fatalf("case %d: CenterStarScore %d, Score %d; recorded %d, %d", c, res.CenterStarScore, res.Score, want.center, want.score)
		}
		if got := rowsDigest(res.Profile.RowStrings()); got != want.rows {
			t.Fatalf("case %d: rows digest %#016x, recorded %#016x", c, got, want.rows)
		}
	}
}
