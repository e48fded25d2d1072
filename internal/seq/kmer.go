package seq

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
)

// packBits is the width of one residue in a packed k-mer key. A residue
// packs as its letter's offset letter−'A'+1 (1..26) rather than its
// alphabet code, so keys do not depend on the alphabet: profiles of
// different alphabets compare exactly as their residue strings do, and key
// order is the residues' byte order.
const packBits = 5

// packMax is the longest k-mer a uint64 key holds whole. A longer k-mer
// (reachable only through a caller-chosen k, such as an MSA guide_k) keys
// on its packMax-residue prefix, and equal keys are ordered and told apart
// by comparing the k-mers' residues.
const packMax = 64 / packBits

// KmerProfile is a sparse k-mer occurrence count vector. Alignment-free
// k-mer distances are the standard cheap prefilter before exact alignment:
// screening pipelines rank candidates by k-mer distance first and spend
// the O(n³) exact aligner only on the survivors.
//
// The profile holds its distinct k-mers as packed keys in ascending order
// with a parallel count slice, so comparing two profiles is one linear
// merge over integer keys with no hashing and no allocation.
type KmerProfile struct {
	k      int
	total  int
	keys   []uint64 // ascending; whole k-mers when k <= packMax, else prefixes
	counts []int32  // counts[i] is the occurrence count of k-mer i
	// k > packMax only: k-mer i is res[pos[i]:pos[i]+k]. res is the
	// profiled sequence's residue slice, immutable after construction.
	res []byte
	pos []int32
}

// Kmers builds the k-mer profile of s. It panics if k < 1; sequences
// shorter than k yield an empty profile.
func Kmers(s *Sequence, k int) *KmerProfile {
	if k < 1 {
		panic(fmt.Sprintf("seq: Kmers k=%d", k))
	}
	p := &KmerProfile{k: k}
	n := len(s.residues) - k + 1
	if n <= 0 {
		return p
	}
	p.total = n
	keys := packWindows(s.residues, k, n)
	if k <= packMax {
		// Sort, then run-length count in place: the distinct keys are
		// compacted into the front of the buffer the profile keeps (its
		// capacity stays n, which Bytes counts).
		slices.Sort(keys)
		p.counts = make([]int32, 0, distinctRuns(n, func(i int) bool { return keys[i] == keys[i-1] }))
		d := 0
		for i := 0; i < n; {
			j := i + 1
			for j < n && keys[j] == keys[i] {
				j++
			}
			keys[d] = keys[i]
			p.counts = append(p.counts, int32(j-i))
			d++
			i = j
		}
		p.keys = keys[:d]
		return p
	}

	// Long k-mers: sort window positions by (prefix key, residues).
	p.res = s.residues
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	window := func(i int32) []byte { return s.residues[i : int(i)+k] }
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return bytes.Compare(window(a), window(b))
	})
	same := func(a, b int32) bool { return keys[a] == keys[b] && bytes.Equal(window(a), window(b)) }
	d := distinctRuns(n, func(i int) bool { return same(order[i], order[i-1]) })
	p.keys = make([]uint64, 0, d)
	p.counts = make([]int32, 0, d)
	p.pos = make([]int32, 0, d)
	for i := 0; i < n; {
		j := i + 1
		for j < n && same(order[j], order[i]) {
			j++
		}
		p.keys = append(p.keys, keys[order[i]])
		p.counts = append(p.counts, int32(j-i))
		p.pos = append(p.pos, order[i])
		i = j
	}
	return p
}

// packWindows returns the packed key of each of the n length-k windows of
// res (the key of a window longer than packMax covers its prefix).
func packWindows(res []byte, k, n int) []uint64 {
	w := min(k, packMax)
	mask := uint64(1)<<(packBits*w) - 1
	keys := make([]uint64, n)
	var key uint64
	for i, c := range res[:n+w-1] {
		key = (key<<packBits | uint64(c-'A'+1)) & mask
		if j := i - w + 1; j >= 0 {
			keys[j] = key
		}
	}
	return keys
}

// distinctRuns counts the runs of a sorted sequence of n items, where
// same(i) reports that item i equals item i-1.
func distinctRuns(n int, same func(i int) bool) int {
	d := 1
	for i := 1; i < n; i++ {
		if !same(i) {
			d++
		}
	}
	return d
}

// packKey packs a k-mer of at most packMax residues; ok is false when the
// k-mer holds a byte that is not an ASCII uppercase letter, which no
// profile can contain.
func packKey(kmer string) (key uint64, ok bool) {
	for i := 0; i < len(kmer); i++ {
		c := kmer[i]
		if c < 'A' || c > 'Z' {
			return 0, false
		}
		key = key<<packBits | uint64(c-'A'+1)
	}
	return key, true
}

// kmer returns the residues of distinct k-mer i of a k > packMax profile.
func (p *KmerProfile) kmer(i int) []byte { return p.res[p.pos[i] : int(p.pos[i])+p.k] }

// K returns the profile's k.
func (p *KmerProfile) K() int { return p.k }

// Total returns the number of k-mers counted (len(s)-k+1 for len(s) >= k).
func (p *KmerProfile) Total() int { return p.total }

// Count returns the occurrence count of one k-mer.
func (p *KmerProfile) Count(kmer string) int {
	if len(kmer) != p.k {
		return 0
	}
	key, ok := packKey(kmer[:min(p.k, packMax)])
	if !ok {
		return 0
	}
	for i, _ := slices.BinarySearch(p.keys, key); i < len(p.keys) && p.keys[i] == key; i++ {
		if p.k <= packMax || string(p.kmer(i)) == kmer {
			return int(p.counts[i])
		}
	}
	return 0
}

// diff returns sum |count_p - count_q| over the union of both profiles'
// k-mers. The merge stops as soon as the sum exceeds limit and then
// returns a value above limit; pass math.MaxInt for the exact sum.
// Profiles of different k panic.
func (p *KmerProfile) diff(q *KmerProfile, limit int) int {
	if p.k != q.k {
		panic(fmt.Sprintf("seq: comparing %d-mer profile with %d-mer profile", p.k, q.k))
	}
	long := p.k > packMax
	pk, pc, qk, qc := p.keys, p.counts, q.keys, q.counts
	i, j, diff := 0, 0, 0
	for i < len(pk) && j < len(qk) {
		a, b := pk[i], qk[j]
		if long && a == b {
			a, b = p.tieBreak(i, q, j)
		}
		// Branch-free step (key order is data-dependent, so branches
		// mispredict): advance the side or sides holding the smaller key.
		// A k-mer one side lacks adds its count; a shared one adds
		// |cp - cq| = cp + cq - 2·min(cp, cq).
		di, dj := 0, 0
		if a <= b {
			di = 1
		}
		if b <= a {
			dj = 1
		}
		cp, cq := int(pc[i]), int(qc[j])
		diff += di*cp + dj*cq - 2*(di&dj)*min(cp, cq)
		i += di
		j += dj
		if diff > limit {
			return diff
		}
	}
	for ; i < len(pc); i++ {
		diff += int(pc[i])
	}
	for ; j < len(qc); j++ {
		diff += int(qc[j])
	}
	return diff
}

// tieBreak orders long k-mers i of p and j of q, whose prefix keys are
// equal, by their residues; it returns the pair of stand-in keys the
// merge compares in their place.
func (p *KmerProfile) tieBreak(i int, q *KmerProfile, j int) (a, b uint64) {
	switch c := bytes.Compare(p.kmer(i), q.kmer(j)); {
	case c < 0:
		return 0, 1
	case c > 0:
		return 1, 0
	}
	return 0, 0
}

// Distance returns the normalized L1 k-mer distance between two profiles:
// sum |count_p - count_q| / (total_p + total_q), which lies in [0, 1]
// (0 for identical multisets, 1 for disjoint ones). Profiles of different
// k are incomparable and panic. Two empty profiles have distance 0.
func (p *KmerProfile) Distance(q *KmerProfile) float64 {
	return distance(p.diff(q, math.MaxInt), p.total+q.total)
}

func distance(diff, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(diff) / float64(total)
}

// Identity estimates the pairwise sequence identity behind the normalized
// k-mer distance to q. A point substitution destroys up to k overlapping
// k-mers, so the shared fraction scales like identity^k; inverting gives
// identity ≈ (1 − distance)^(1/k). The estimate degrades gracefully: at
// distance 1 (nothing shared) it reports identity 0.
func (p *KmerProfile) Identity(q *KmerProfile) float64 {
	return identityAt(p.Distance(q), p.k)
}

func identityAt(d float64, k int) float64 {
	if d >= 1 {
		return 0
	}
	return math.Pow(1-d, 1.0/float64(k))
}

// identityAtLeast returns p.Identity(q) and true when that identity is at
// least x. Otherwise it reports false, often before the merge finishes:
// identity ≥ x exactly when diff ≤ total·(1 − x^k), and the merge stops
// once diff passes that budget plus one k-mer of slack for rounding.
func (p *KmerProfile) identityAtLeast(q *KmerProfile, x float64) (float64, bool) {
	total := p.total + q.total
	limit := math.MaxInt
	if x > 0 && total > 0 {
		limit = int(max(float64(total)*(1-math.Pow(x, float64(p.k))), 0)) + 1
	}
	diff := p.diff(q, limit)
	if diff > limit {
		return 0, false
	}
	id := identityAt(distance(diff, total), p.k)
	return id, id >= x
}

// KmerDistance is a convenience wrapper: the normalized k-mer distance
// between two sequences.
func KmerDistance(a, b *Sequence, k int) float64 {
	return Kmers(a, k).Distance(Kmers(b, k))
}

// TripleSketch is the per-sequence k-mer profiles of one triple. Neither
// the planner nor alignd builds one any more; it is kept only for the
// benchmark's traced layers (probe.sketch_us, cache.nearest_us). A sketch
// is immutable, so it may be read from any number of goroutines.
type TripleSketch struct {
	k       int
	A, B, C *KmerProfile
}

// SketchTriple builds the triple's k-mer sketch: three profiles, one pass
// over each sequence.
func SketchTriple(t Triple, k int) *TripleSketch {
	return &TripleSketch{k: k, A: Kmers(t.A, k), B: Kmers(t.B, k), C: Kmers(t.C, k)}
}

// K returns the sketch's k-mer size.
func (s *TripleSketch) K() int { return s.k }

// MeanIdentity is the mean pairwise identity estimate within the triple.
// It is no guide to how much of the lattice a Carrillo–Lipman band admits:
// chance k-mer sharing grows with length, so unrelated 600-residue DNA
// reads about as close as 70%-identity relatives of 300.
func (s *TripleSketch) MeanIdentity() float64 {
	return (s.A.Identity(s.B) + s.A.Identity(s.C) + s.B.Identity(s.C)) / 3
}

// Identity is the positionwise mean identity estimate between two triples
// (A vs A', B vs B', C vs C') — the near-duplicate scan's similarity
// measure. Sketches of different k are incomparable and panic (via
// KmerProfile.Distance).
func (s *TripleSketch) Identity(o *TripleSketch) float64 {
	return (s.A.Identity(o.A) + s.B.Identity(o.B) + s.C.Identity(o.C)) / 3
}

// pruneSlack lowers every cutoff BoundedIdentity derives from its floor,
// so float rounding in a cutoff can only keep a pair the final comparison
// rejects, never reject one it would keep.
const pruneSlack = 1e-9

// BoundedIdentity reports whether s.Identity(o) reaches floor and, when
// it does, returns that identity bit for bit. It can tell early that the
// identity falls short: positions are scored in order A, B, C, and each
// must reach what the floor still needs after the positions already
// scored, assuming identity 1 for the rest — after A, the pair is dropped
// when idA + 2 < 3·floor — and a profile merge stops once its diff passes
// the budget its position has left. Sketches of different k panic.
// alignd no longer calls it (through resultcache.Cache.Nearest); it is
// kept only for the benchmark's traced cache.nearest_us layer.
func (s *TripleSketch) BoundedIdentity(o *TripleSketch, floor float64) (float64, bool) {
	pairs := [3][2]*KmerProfile{{s.A, o.A}, {s.B, o.B}, {s.C, o.C}}
	need := 3*floor - pruneSlack // what the three identities must sum to
	var ids [3]float64
	for i, pr := range pairs {
		id, ok := pr[0].identityAtLeast(pr[1], need-float64(2-i))
		if !ok {
			return 0, false
		}
		ids[i] = id
		need -= id
	}
	id := (ids[0] + ids[1] + ids[2]) / 3
	return id, id >= floor
}

// Bytes estimates the sketch's heap footprint, used by byte-budgeted
// caches that retain sketches alongside entries: the sketch and profile
// headers plus each profile's key, count and (long k-mer) position
// buffers at their capacity. The profiled residues belong to the
// sequences and are not counted.
func (s *TripleSketch) Bytes() int64 {
	const headers = 32 + 3*112 // TripleSketch + three KmerProfile structs
	n := int64(headers)
	for _, p := range []*KmerProfile{s.A, s.B, s.C} {
		n += int64(cap(p.keys))*8 + int64(cap(p.counts))*4 + int64(cap(p.pos))*4
	}
	return n
}
