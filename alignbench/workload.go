package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/client"
)

const (
	dnaLetters     = "ACGT"
	proteinLetters = "ACDEFGHIKLMNPQRSTVWY"
)

// workload is one traffic mix: how many closed-loop clients send requests
// (each waits for a reply before sending again), how alignd is configured,
// and how the seeded request stream is built.
type workload struct {
	name    string
	clients int
	// nominalRPS sizes the fixed request count so that a run
	// lasts about --seconds on a 2-core host; the count depends only on
	// --seconds, never on measured speed, so every run sends the same
	// requests.
	nominalRPS float64
	// flags are the alignd flags beyond the listen address.
	flags []string
	// msa sends /v1/msa families instead of /v1/align triples.
	msa   bool
	build func(seed int64, n int) *stream
}

// requestCount is the fixed number of measured requests for a run of the
// given length.
func (w *workload) requestCount(seconds int) int {
	return int(math.Ceil(w.nominalRPS * float64(seconds)))
}

// input is one distinct request body; requests refer to inputs by index so
// each distinct input is verified against one reference score.
type input struct {
	seqs []string // 3 for /v1/align, N for /v1/msa
	kind string   // pool, near-dup, fresh, family, warm
}

// request is one send in the stream.
type request struct {
	input int
}

// stream is a workload's whole deterministic request sequence. warm and
// prime run before the timed window: warm on inputs the measured phase
// never sends, prime to fill state the workload is defined over (the
// result cache's pool).
type stream struct {
	inputs   []input
	warm     []request
	prime    []request
	measured []request
}

func (s *stream) add(in input) int {
	s.inputs = append(s.inputs, in)
	return len(s.inputs) - 1
}

func (s *stream) alignRequest(i int) *client.AlignRequest {
	q := s.inputs[i].seqs
	return &client.AlignRequest{A: q[0], B: q[1], C: q[2]}
}

func (s *stream) msaRequest(i int) *client.MsaRequest {
	return &client.MsaRequest{Sequences: s.inputs[i].seqs, Alphabet: "protein"}
}

// gen is the benchmark's own sequence generator, so inputs stay fixed when
// the program's generators change.
type gen struct {
	r       *rand.Rand
	letters string
}

func newGen(seed int64, salt string, letters string) *gen {
	h := int64(1469598103934665603)
	for i := 0; i < len(salt); i++ {
		h = (h ^ int64(salt[i])) * 1099511628211
	}
	return &gen{r: rand.New(rand.NewSource(seed ^ h)), letters: letters}
}

func (g *gen) random(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = g.letters[g.r.Intn(len(g.letters))]
	}
	return out
}

// mutate copies parent with per-residue substitution rate sub and
// insertion and deletion rates indel each.
func (g *gen) mutate(parent []byte, sub, indel float64) []byte {
	out := make([]byte, 0, len(parent)+len(parent)/8+4)
	for _, c := range parent {
		if g.r.Float64() < indel {
			out = append(out, g.letters[g.r.Intn(len(g.letters))])
		}
		if g.r.Float64() < indel {
			continue
		}
		if g.r.Float64() < sub {
			c = g.other(c)
		}
		out = append(out, c)
	}
	return out
}

// other returns a letter other than c, uniformly.
func (g *gen) other(c byte) byte {
	j := g.r.Intn(len(g.letters) - 1)
	if j >= strings.IndexByte(g.letters, c) {
		j++
	}
	return g.letters[j]
}

// substitute changes a share rate of the residues (at least one).
func (g *gen) substitute(s string, rate float64) string {
	b := []byte(s)
	k := int(math.Round(rate * float64(len(b))))
	if k < 1 {
		k = 1
	}
	for _, i := range g.r.Perm(len(b))[:k] {
		b[i] = g.other(b[i])
	}
	return string(b)
}

// family returns count relatives of one random ancestor of length n.
func (g *gen) family(count, n int, sub, indel float64) []string {
	anc := g.random(n)
	out := make([]string, count)
	for i := range out {
		out[i] = string(g.mutate(anc, sub, indel))
	}
	return out
}

// cycle returns n requests over the given inputs in seeded order, each
// input used as evenly as possible.
func cycle(g *gen, ids []int, n int) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		perm := g.r.Perm(len(ids))
		for _, p := range perm {
			if len(out) == n {
				break
			}
			out = append(out, request{input: ids[p]})
		}
	}
	return out
}

// resize truncates s or pads it with random residues to exactly n.
func (g *gen) resize(s string, n int) string {
	if len(s) >= n {
		return s[:n]
	}
	return s + string(g.random(n-len(s)))
}

// evenLength is the i-th of count ancestor lengths spaced evenly over
// [lo, hi] (the middle one when count is 1). Every seed asks for the same
// multiset of lengths, so seeds change the residues but not the amount of
// work a run sends.
func evenLength(i, count, lo, hi int) int {
	if count == 1 {
		return (lo + hi) / 2
	}
	return lo + i*(hi-lo)/(count-1)
}

// tripleInputs adds count triples with ancestor lengths spread evenly over
// [lo, hi].
func tripleInputs(s *stream, g *gen, count, lo, hi int, sub, indel float64, kind string) []int {
	ids := make([]int, count)
	for i := range ids {
		n := evenLength(i, count, lo, hi)
		ids[i] = s.add(input{seqs: g.family(3, n, sub, indel), kind: kind})
	}
	return ids
}

// Mutation rates: sub is the per-copy substitution rate from a shared
// ancestor, so pairwise identity is about (1-sub)^2.
const (
	sub80 = 0.10 // ~80% pairwise identity
	sub70 = 0.16 // ~70%
	sub98 = 0.01 // ~98%
)

var workloads = []*workload{
	{
		// A closed loop, not an open one: an open loop at 100 req/s left
		// the CPUs mostly idle, its p90 rose about 5% per point of the
		// hypervisor's steal time (about half that here), and its spread
		// over ten runs reached 0.27 to 0.38 on a shared 2-core VM.
		name:       "align-small-closed",
		clients:    2,
		nominalRPS: 450,
		flags:      nil, // defaults: 2 ms coalesce tick, cache off
		build: func(seed int64, n int) *stream {
			s := &stream{}
			g := newGen(seed, "align-small-closed", dnaLetters)
			pool := tripleInputs(s, g, 192, 64, 128, sub80, sub80/4, "pool")
			warm := tripleInputs(s, g, 32, 64, 128, sub80, sub80/4, "warm")
			s.warm = cycle(g, warm, 64)
			s.measured = cycle(g, pool, n)
			return s
		},
	},
	{
		name:       "align-large-closed",
		clients:    1,
		nominalRPS: 42,
		build: func(seed int64, n int) *stream {
			s := &stream{}
			g := newGen(seed, "align-large-closed", dnaLetters)
			// Every triple is exactly 300×300×300, so each request plans
			// the same lattice and alignd's buffer pools behave the same
			// whatever the seed.
			pool := tripleInputs(s, g, 12, 300, 300, sub70, sub70/4, "pool")
			warm := tripleInputs(s, g, 2, 300, 300, sub70, sub70/4, "warm")
			for _, id := range append(pool, warm...) {
				for k, q := range s.inputs[id].seqs {
					s.inputs[id].seqs[k] = g.resize(q, 300)
				}
			}
			s.warm = cycle(g, warm, 24)
			s.measured = cycle(g, pool, n)
			return s
		},
	},
	{
		name:       "align-repeat-cached",
		clients:    2,
		nominalRPS: 170,
		flags:      []string{"-cache-bytes", "268435456"},
		build: func(seed int64, n int) *stream {
			s := &stream{}
			g := newGen(seed, "align-repeat-cached", dnaLetters)
			pool := tripleInputs(s, g, 24, 290, 310, sub98, sub98/4, "pool")
			warm := tripleInputs(s, g, 4, 290, 310, sub98, sub98/4, "warm")
			s.warm = cycle(g, warm, 8)
			s.prime = make([]request, len(pool))
			for i, id := range pool {
				s.prime[i] = request{input: id}
			}
			// Fixed shares in every block of 20: 14 repeats, 3 near-dups and
			// 3 fresh triples, shuffled within the block.
			repeats := cycle(g, pool, n)
			for start := 0; start < n; start += 20 {
				end := min(start+20, n)
				block := make([]request, 0, 20)
				for j := 0; j < 20; j++ {
					switch {
					case j < 14:
						block = append(block, repeats[0])
						repeats = repeats[1:]
					case j < 17:
						base := s.inputs[pool[g.r.Intn(len(pool))]].seqs
						near := make([]string, 3)
						for k, q := range base {
							near[k] = g.substitute(q, 0.005)
						}
						block = append(block, request{input: s.add(input{seqs: near, kind: "near-dup"})})
					default:
						block = append(block, request{input: tripleInputs(s, g, 1, 290, 310, sub98, sub98/4, "fresh")[0]})
					}
				}
				g.r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
				s.measured = append(s.measured, block[:end-start]...)
			}
			return s
		},
	},
	{
		name:       "msa-protein-family",
		clients:    1,
		nominalRPS: 16,
		msa:        true,
		build: func(seed int64, n int) *stream {
			s := &stream{}
			g := newGen(seed, "msa-protein-family", proteinLetters)
			// The i-th family's ancestor length is 60 + i mod 9.
			fam := func(i int, kind string) int {
				return s.add(input{seqs: g.family(8, 60+i%9, sub70, sub70/4), kind: kind})
			}
			for i := 0; i < 3; i++ {
				s.warm = append(s.warm, request{input: fam(i, "warm")})
			}
			for i := 0; i < n; i++ {
				s.measured = append(s.measured, request{input: fam(i, "family")})
			}
			return s
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
