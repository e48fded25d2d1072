package seq

import (
	"fmt"
	"math/rand"
)

// Generator produces deterministic synthetic sequences. All experiments in
// this repository draw their workloads from seeded Generators so that every
// table and figure is exactly reproducible.
type Generator struct {
	rng   *rand.Rand
	alpha *Alphabet
}

// NewGenerator returns a Generator over alpha seeded with seed.
func NewGenerator(alpha *Alphabet, seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), alpha: alpha}
}

// coreSize excludes trailing ambiguity codes (N for nucleotides, B/Z/X for
// protein) from random generation so synthetic data uses only concrete
// residues.
func (g *Generator) coreSize() int {
	switch g.alpha {
	case DNA, RNA:
		return 4
	case Protein:
		return 20
	default:
		return g.alpha.Size()
	}
}

// Random returns a uniformly random sequence of length n.
func (g *Generator) Random(name string, n int) *Sequence {
	if n < 0 {
		panic(fmt.Sprintf("seq: Random length %d", n))
	}
	core := g.coreSize()
	res := make([]byte, n)
	for i := range res {
		res[i] = g.alpha.Letter(int8(g.rng.Intn(core)))
	}
	return newSequence(name, res, g.alpha)
}

// MutationModel controls how Mutate derives a child sequence from a parent.
// Probabilities are per-residue and should each lie in [0, 1].
type MutationModel struct {
	SubstitutionRate float64 // replace residue with a different one
	InsertionRate    float64 // insert a random residue before this one
	DeletionRate     float64 // drop this residue
}

// Uniform returns a model in which all three event rates equal r.
func Uniform(r float64) MutationModel {
	return MutationModel{SubstitutionRate: r, InsertionRate: r / 4, DeletionRate: r / 4}
}

// Mutate derives a child of parent under the model. The expected identity
// of child vs. parent is roughly 1 - SubstitutionRate (indels shift
// positions but preserve most residues).
func (g *Generator) Mutate(name string, parent *Sequence, m MutationModel) *Sequence {
	core := g.coreSize()
	out := make([]byte, 0, parent.Len()+parent.Len()/8+4)
	for i := 0; i < parent.Len(); i++ {
		if g.rng.Float64() < m.InsertionRate {
			out = append(out, g.alpha.Letter(int8(g.rng.Intn(core))))
		}
		if g.rng.Float64() < m.DeletionRate {
			continue
		}
		c := parent.At(i)
		if g.rng.Float64() < m.SubstitutionRate {
			// Draw a residue different from the current one.
			cur := int(g.alpha.Code(c))
			nc := g.rng.Intn(core - 1)
			if nc >= cur {
				nc++
			}
			c = g.alpha.Letter(int8(nc))
		}
		out = append(out, c)
	}
	return newSequence(name, out, g.alpha)
}

// RelatedTriple generates three sequences descended from one random
// ancestor of length n, each mutated independently under model m. This is
// the canonical workload of the evaluation: three homologous sequences
// whose pairwise identity is controlled by m.SubstitutionRate.
func (g *Generator) RelatedTriple(n int, m MutationModel) Triple {
	anc := g.Random("ancestor", n)
	return Triple{
		A: g.Mutate("A", anc, m),
		B: g.Mutate("B", anc, m),
		C: g.Mutate("C", anc, m),
	}
}

// TripleWithLengths generates a related triple and then trims or extends
// each child to the exact requested length (extension appends random
// residues), for experiments that need fixed, possibly unequal, lengths.
func (g *Generator) TripleWithLengths(na, nb, nc int, m MutationModel) Triple {
	base := na
	if nb > base {
		base = nb
	}
	if nc > base {
		base = nc
	}
	t := g.RelatedTriple(base, m)
	return Triple{
		A: g.resize(t.A, na),
		B: g.resize(t.B, nb),
		C: g.resize(t.C, nc),
	}
}

func (g *Generator) resize(s *Sequence, n int) *Sequence {
	core := g.coreSize()
	res := s.residues
	switch {
	case len(res) > n:
		res = res[:n]
	case len(res) < n:
		grown := make([]byte, len(res), n)
		copy(grown, res)
		for len(grown) < n {
			grown = append(grown, g.alpha.Letter(int8(g.rng.Intn(core))))
		}
		res = grown
	}
	out := make([]byte, n)
	copy(out, res)
	return newSequence(s.name, out, s.alpha)
}

// RelatedFamily generates count sequences descended from one random
// ancestor of length n, each mutated independently under model m — the
// N-sequence generalization of RelatedTriple for MSA workloads.
func (g *Generator) RelatedFamily(count, n int, m MutationModel) []*Sequence {
	anc := g.Random("ancestor", n)
	out := make([]*Sequence, count)
	for i := range out {
		out[i] = g.Mutate(fmt.Sprintf("s%d", i), anc, m)
	}
	return out
}
