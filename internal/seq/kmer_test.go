package seq

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestKmersCounts(t *testing.T) {
	s := MustNew("s", "ACGTACG", DNA)
	p := Kmers(s, 3)
	if p.K() != 3 || p.Total() != 5 {
		t.Fatalf("k=%d total=%d, want 3 and 5", p.K(), p.Total())
	}
	if p.Count("ACG") != 2 || p.Count("CGT") != 1 || p.Count("TTT") != 0 {
		t.Fatalf("counts wrong: ACG=%d CGT=%d TTT=%d", p.Count("ACG"), p.Count("CGT"), p.Count("TTT"))
	}
}

func TestKmersShortSequence(t *testing.T) {
	if p := Kmers(MustNew("s", "AC", DNA), 3); p.Total() != 0 {
		t.Fatalf("short sequence total = %d, want 0", p.Total())
	}
}

func TestKmersPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	Kmers(MustNew("s", "AC", DNA), 0)
}

func TestKmerDistanceIdentity(t *testing.T) {
	a := MustNew("a", "ACGTACGTACGT", DNA)
	if d := KmerDistance(a, a, 4); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestKmerDistanceDisjoint(t *testing.T) {
	a := MustNew("a", "AAAAAA", DNA)
	b := MustNew("b", "CCCCCC", DNA)
	if d := KmerDistance(a, b, 3); d != 1 {
		t.Fatalf("disjoint distance = %v, want 1", d)
	}
}

func TestKmerDistanceSymmetricAndBounded(t *testing.T) {
	g := NewGenerator(DNA, 9)
	for trial := 0; trial < 20; trial++ {
		a := g.Random("a", 50+trial)
		b := g.Mutate("b", a, MutationModel{SubstitutionRate: float64(trial) / 25})
		d1 := KmerDistance(a, b, 4)
		d2 := KmerDistance(b, a, 4)
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("trial %d: asymmetric: %v vs %v", trial, d1, d2)
		}
		if d1 < 0 || d1 > 1 {
			t.Fatalf("trial %d: distance %v out of [0,1]", trial, d1)
		}
	}
}

func TestKmerDistanceTracksDivergence(t *testing.T) {
	g := NewGenerator(DNA, 10)
	anc := g.Random("anc", 300)
	near := g.Mutate("near", anc, MutationModel{SubstitutionRate: 0.05})
	far := g.Mutate("far", anc, MutationModel{SubstitutionRate: 0.5})
	dNear := KmerDistance(anc, near, 5)
	dFar := KmerDistance(anc, far, 5)
	if dNear >= dFar {
		t.Fatalf("5%% divergence distance %v not below 50%% divergence %v", dNear, dFar)
	}
}

func TestKmerDistanceMismatchedKPanics(t *testing.T) {
	a := Kmers(MustNew("a", "ACGT", DNA), 2)
	b := Kmers(MustNew("b", "ACGT", DNA), 3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched k accepted")
		}
	}()
	a.Distance(b)
}

func TestKmerDistanceEmpty(t *testing.T) {
	e := MustNew("e", "", DNA)
	if d := KmerDistance(e, e, 3); d != 0 {
		t.Fatalf("empty distance = %v, want 0", d)
	}
	a := MustNew("a", "ACGTACGT", DNA)
	if d := KmerDistance(a, e, 3); d != 1 {
		t.Fatalf("vs empty = %v, want 1", d)
	}
}

func TestKmerIdentityTracksSubstitutionRate(t *testing.T) {
	g := NewGenerator(DNA, 21)
	anc := g.Random("anc", 400)
	if id := Kmers(anc, 6).Identity(Kmers(anc, 6)); id != 1 {
		t.Fatalf("self identity = %v, want 1", id)
	}
	near := g.Mutate("near", anc, MutationModel{SubstitutionRate: 0.02})
	far := g.Mutate("far", anc, MutationModel{SubstitutionRate: 0.30})
	idNear := Kmers(anc, 6).Identity(Kmers(near, 6))
	idFar := Kmers(anc, 6).Identity(Kmers(far, 6))
	if !(idNear > idFar) {
		t.Fatalf("2%% divergence identity %v not above 30%% divergence %v", idNear, idFar)
	}
	if idNear < 0.9 || idNear > 1 {
		t.Fatalf("2%% divergence identity %v outside (0.9, 1]", idNear)
	}
	// Disjoint sequences: distance 1 must degrade to identity 0, not NaN.
	disjoint := MustNew("d", "CCCCCCCCCC", DNA)
	all := MustNew("a", "AAAAAAAAAA", DNA)
	if id := Kmers(all, 6).Identity(Kmers(disjoint, 6)); id != 0 {
		t.Fatalf("disjoint identity = %v, want 0", id)
	}
}

func TestTripleSketchIdentities(t *testing.T) {
	g := NewGenerator(DNA, 33)
	tr := g.RelatedTriple(300, MutationModel{SubstitutionRate: 0.05})
	sk := SketchTriple(tr, 6)
	if sk.K() != 6 {
		t.Fatalf("K() = %d, want 6", sk.K())
	}
	if id := sk.MeanIdentity(); id <= 0.5 || id > 1 {
		t.Fatalf("related-triple mean identity %v outside (0.5, 1]", id)
	}
	if id := sk.Identity(sk); id != 1 {
		t.Fatalf("self sketch identity %v, want 1", id)
	}
	// A positionwise mutated copy scores below 1 but close; an unrelated
	// triple scores clearly lower.
	mut := Triple{
		A: g.Mutate(tr.A.Name(), tr.A, MutationModel{SubstitutionRate: 0.03}),
		B: tr.B,
		C: tr.C,
	}
	skMut := SketchTriple(mut, 6)
	if id := sk.Identity(skMut); id >= 1 || id < 0.8 {
		t.Fatalf("1-sequence mutated sketch identity %v outside [0.8, 1)", id)
	}
	other := Triple{A: g.Random("x", 300), B: g.Random("y", 300), C: g.Random("z", 300)}
	if near, far := sk.Identity(skMut), sk.Identity(SketchTriple(other, 6)); near <= far {
		t.Fatalf("mutated identity %v not above unrelated %v", near, far)
	}
	if sk.Bytes() <= 0 {
		t.Fatal("sketch bytes estimate must be positive")
	}
}

func TestTripleSketchMismatchedKPanics(t *testing.T) {
	g := NewGenerator(DNA, 5)
	tr := g.RelatedTriple(50, MutationModel{})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sketch k accepted")
		}
	}()
	SketchTriple(tr, 4).Identity(SketchTriple(tr, 6))
}

// refKmers is the original map-based k-mer profile, kept verbatim as the
// differential oracle for KmerProfile: every value the packed profile
// reports must equal this one's bit for bit.
type refKmers struct {
	k      int
	counts map[string]int
	total  int
}

func newRefKmers(s *Sequence, k int) *refKmers {
	if k < 1 {
		panic(fmt.Sprintf("seq: Kmers k=%d", k))
	}
	p := &refKmers{k: k, counts: map[string]int{}}
	res := s.String()
	for i := 0; i+k <= len(res); i++ {
		p.counts[res[i:i+k]]++
		p.total++
	}
	return p
}

func (p *refKmers) Total() int { return p.total }

func (p *refKmers) Count(kmer string) int { return p.counts[kmer] }

func (p *refKmers) Distance(q *refKmers) float64 {
	if p.k != q.k {
		panic(fmt.Sprintf("seq: comparing %d-mer profile with %d-mer profile", p.k, q.k))
	}
	if p.total+q.total == 0 {
		return 0
	}
	diff := 0
	for kmer, cp := range p.counts {
		d := cp - q.counts[kmer]
		if d < 0 {
			d = -d
		}
		diff += d
	}
	for kmer, cq := range q.counts {
		if _, seen := p.counts[kmer]; !seen {
			diff += cq
		}
	}
	return float64(diff) / float64(p.total+q.total)
}

func (p *refKmers) Identity(q *refKmers) float64 {
	d := p.Distance(q)
	if d >= 1 {
		return 0
	}
	return math.Pow(1-d, 1.0/float64(p.k))
}

// checkAgainstRef fails unless the packed profiles of a and b report what
// the reference reports: totals, every k-mer's count (present in either
// sequence, plus misses), distance and identity, compared as float bits.
func checkAgainstRef(t testing.TB, a, b *Sequence, k int) {
	t.Helper()
	pa, pb := Kmers(a, k), Kmers(b, k)
	ra, rb := newRefKmers(a, k), newRefKmers(b, k)
	if pa.Total() != ra.Total() || pb.Total() != rb.Total() {
		t.Fatalf("k=%d totals %d,%d, reference %d,%d", k, pa.Total(), pb.Total(), ra.Total(), rb.Total())
	}
	probes := []string{"", strings.Repeat("A", k), strings.Repeat("a", k), strings.Repeat("A", k+1), strings.Repeat("!", k)}
	for kmer := range ra.counts {
		probes = append(probes, kmer)
	}
	for kmer := range rb.counts {
		probes = append(probes, kmer)
	}
	for _, kmer := range probes {
		if got, want := pa.Count(kmer), ra.Count(kmer); got != want {
			t.Fatalf("k=%d Count(%q) = %d, reference %d", k, kmer, got, want)
		}
		if got, want := pb.Count(kmer), rb.Count(kmer); got != want {
			t.Fatalf("k=%d Count(%q) = %d, reference %d", k, kmer, got, want)
		}
	}
	for _, pr := range [][2]float64{
		{pa.Distance(pb), ra.Distance(rb)},
		{pb.Distance(pa), rb.Distance(ra)},
		{pa.Identity(pb), ra.Identity(rb)},
		{pb.Identity(pa), rb.Identity(ra)},
	} {
		if math.Float64bits(pr[0]) != math.Float64bits(pr[1]) {
			t.Fatalf("k=%d %q vs %q: %v, reference %v", k, a.String(), b.String(), pr[0], pr[1])
		}
	}
}

// refCorpus is a set of sequences over alpha covering the profile's edge
// cases: empty and shorter than every k, homopolymers, ambiguity codes,
// random and mutated sequences, and sequences whose long k-mers share a
// packMax-residue prefix, so k > packMax profiles must tell them apart by
// their residues.
func refCorpus(alpha *Alphabet, seed int64) []*Sequence {
	g := NewGenerator(alpha, seed)
	letters := alpha.Letters()
	out := []*Sequence{
		MustNew("empty", "", alpha),
		MustNew("one", letters[:1], alpha),
		MustNew("homo", strings.Repeat(letters[:1], 40), alpha),
		MustNew("homo2", strings.Repeat(letters[1:2], 33), alpha),
		MustNew("all", strings.Repeat(letters, 3), alpha),
	}
	anc := g.Random("anc", 120)
	out = append(out, anc,
		g.Mutate("near", anc, MutationModel{SubstitutionRate: 0.03}),
		g.Mutate("far", anc, Uniform(0.3)),
		g.Random("short", 7),
	)
	block := g.Random("block", packMax).String()
	var shared strings.Builder
	for i := 0; i < 12; i++ {
		shared.WriteString(block)
		shared.WriteString(g.Random("tail", 1+i%9).String())
	}
	out = append(out, MustNew("shared", shared.String(), alpha))
	return out
}

func TestKmerProfileMatchesReference(t *testing.T) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, packMax, packMax + 1, 20}
	for i, alpha := range []*Alphabet{DNA, RNA, Protein} {
		corpus := refCorpus(alpha, int64(40+i))
		for _, k := range ks {
			for _, a := range corpus {
				for _, b := range corpus {
					checkAgainstRef(t, a, b, k)
				}
			}
		}
	}
	// Profiles of different alphabets compare by residue letters, as the
	// map-keyed profile did.
	dna := MustNew("d", "ACGTNACGTTGCA", DNA)
	prot := MustNew("p", "ACGTNACGWWGCA", Protein)
	for _, k := range ks {
		checkAgainstRef(t, dna, prot, k)
	}
}

// refTripleIdentity and refMeanIdentity are TripleSketch.Identity and
// MeanIdentity computed on the reference profiles.
func refTripleIdentity(s, o Triple, k int) float64 {
	id := func(a, b *Sequence) float64 { return newRefKmers(a, k).Identity(newRefKmers(b, k)) }
	return (id(s.A, o.A) + id(s.B, o.B) + id(s.C, o.C)) / 3
}

func refMeanIdentity(s Triple, k int) float64 {
	id := func(a, b *Sequence) float64 { return newRefKmers(a, k).Identity(newRefKmers(b, k)) }
	return (id(s.A, s.B) + id(s.A, s.C) + id(s.B, s.C)) / 3
}

// checkTripleAgainstRef pins the sketch's identities to the reference,
// and BoundedIdentity to Identity: it keeps exactly the pairs whose
// identity reaches the floor, with Identity's exact value.
func checkTripleAgainstRef(t testing.TB, s, o Triple, k int, floors []float64) {
	t.Helper()
	ss, so := SketchTriple(s, k), SketchTriple(o, k)
	want := refTripleIdentity(s, o, k)
	if got := ss.Identity(so); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("k=%d triple identity %v, reference %v", k, got, want)
	}
	if got, want := ss.MeanIdentity(), refMeanIdentity(s, k); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("k=%d mean identity %v, reference %v", k, got, want)
	}
	for _, floor := range append(floors, want, math.Nextafter(want, 2), math.Nextafter(want, -1), want+1e-9, want-1e-9) {
		got, ok := ss.BoundedIdentity(so, floor)
		if ok != (want >= floor) {
			t.Fatalf("k=%d floor %v: bounded identity ok=%v for a pair at %v", k, floor, ok, want)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("k=%d floor %v: bounded identity %v, want %v", k, floor, got, want)
		}
	}
}

func TestTripleSketchMatchesReference(t *testing.T) {
	floors := []float64{-1, 0, 0.5, 0.7, 0.9, 0.99, 1, 1.5}
	for i, alpha := range []*Alphabet{DNA, RNA, Protein} {
		g := NewGenerator(alpha, int64(60+i))
		base := g.RelatedTriple(150, MutationModel{SubstitutionRate: 0.05})
		others := []Triple{
			base,
			{A: g.Mutate("a", base.A, MutationModel{SubstitutionRate: 0.02}), B: base.B, C: base.C},
			{A: base.A, B: base.B, C: g.Mutate("c", base.C, Uniform(0.1))},
			g.RelatedTriple(150, MutationModel{SubstitutionRate: 0.05}),
			{A: MustNew("e", "", alpha), B: base.B.Slice(0, 3), C: base.C},
		}
		for _, k := range []int{1, 3, 6, 8, packMax + 1, 20} {
			for _, o := range others {
				checkTripleAgainstRef(t, base, o, k, floors)
			}
		}
	}
}

// TestTripleSketchBytesTracksAllocation: Bytes feeds the result cache's
// byte budget, so it must stay within 2x of what SketchTriple allocates.
func TestTripleSketchBytesTracksAllocation(t *testing.T) {
	tr := NewGenerator(DNA, 71).RelatedTriple(300, MutationModel{SubstitutionRate: 0.02})
	est := SketchTriple(tr, 6).Bytes()
	alloc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sketchSink = SketchTriple(tr, 6)
		}
	}).AllocedBytesPerOp()
	if est*2 < alloc || alloc*2 < est {
		t.Fatalf("Bytes() = %d, SketchTriple allocates %d per call", est, alloc)
	}
	t.Logf("Bytes() = %d, SketchTriple allocates %d per call", est, alloc)
}

var (
	sketchSink   *TripleSketch
	identitySink float64
)

func BenchmarkSketchTriple(b *testing.B) {
	tr := NewGenerator(DNA, 81).RelatedTriple(300, MutationModel{SubstitutionRate: 0.02})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sketchSink = SketchTriple(tr, 6)
	}
}

func BenchmarkTripleSketchIdentity(b *testing.B) {
	g := NewGenerator(DNA, 82)
	tr := g.RelatedTriple(300, MutationModel{SubstitutionRate: 0.02})
	near := Triple{A: g.Mutate("a", tr.A, MutationModel{SubstitutionRate: 0.02}), B: tr.B, C: tr.C}
	s, o := SketchTriple(tr, 6), SketchTriple(near, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		identitySink = s.Identity(o)
	}
}
