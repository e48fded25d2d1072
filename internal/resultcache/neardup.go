package resultcache

import (
	"encoding/binary"
	"math"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// Candidate is one near-duplicate prescreen match: a cached triple whose
// sketch identity to the probe met the threshold, carrying the cached
// score the patch-up uses as its seed.
type Candidate struct {
	// Score is the cached triple's optimal alignment score.
	Score mat.Score
	// Identity is the estimated positionwise identity between the probe
	// triple and the cached one, in [0, 1].
	Identity float64
}

// Nearest looks for a cached entry similar to the probe sketch among
// entries with the same Meta — the same scoring scheme and algorithm
// request, because a cached score only seeds a valid bound under identical
// scoring semantics. Entries below minIdentity (or without a sketch, or
// with a sketch of a different k) are ignored.
//
// The lock is held only to copy the candidates out: Nearest walks the LRU
// list most-recent-first and copies the sketch and score of every
// same-Meta, same-k entry (an 8-byte prefix compare rejects almost every
// foreign-scheme entry before the full 32-byte compare). Sketches are
// immutable after Put, so the copies are scored after the lock is
// released, and concurrent Gets never wait behind a scan.
//
// Scoring prunes early: seq.TripleSketch.BoundedIdentity drops an entry
// as soon as the positions scored so far cannot lift the mean to
// minIdentity, often partway through the first profile merge, and an
// entry that survives carries exactly the identity a full scan computes.
// The scan returns the first entry at or above minIdentity, the most
// recently used one, rather than ranking the whole cache: any candidate
// meeting the threshold seeds an equally valid bound (the bounded
// re-align proves or rejects it regardless), so finishing the scan buys
// nothing once one is in hand.
//
// Correctness never depends on the answer: the prescreen only proposes a
// seed, and the bounded re-align either proves it or the caller falls back
// to a full plan — so Nearest deliberately skips checksum verification,
// since even a corrupted score cannot produce a wrong alignment, only a
// failed or wasteful patch-up.
func (c *Cache) Nearest(sk *seq.TripleSketch, meta Meta, minIdentity float64) (Candidate, bool) {
	if c == nil || sk == nil {
		return Candidate{}, false
	}
	for _, e := range c.sameScheme(meta, sk.K()) {
		if id, ok := sk.BoundedIdentity(e.sketch, minIdentity); ok {
			return Candidate{Score: e.score, Identity: id}, true
		}
	}
	return Candidate{}, false
}

// sketched is one entry's sketch and score, copied out for an unlocked
// near-duplicate scan.
type sketched struct {
	sketch *seq.TripleSketch
	score  mat.Score
}

// sameScheme copies, most recently used first, the sketch and score of
// every entry with the given Meta and a sketch of size k.
func (c *Cache) sameScheme(meta Meta, k int) []sketched {
	metaPrefix := binary.BigEndian.Uint64(meta[:8])
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sketched, 0, len(c.entries))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if binary.BigEndian.Uint64(e.meta[:8]) != metaPrefix || e.meta != meta {
			continue
		}
		if e.sketch == nil || e.sketch.K() != k {
			continue
		}
		out = append(out, sketched{sketch: e.sketch, score: e.res.Score})
	}
	return out
}

// SeedBound turns a near-duplicate candidate into a lower bound for the
// bounded re-align: the cached score minus a margin covering the mutations
// the identity estimate implies. Each point mutation in a three-sequence
// SP alignment shifts the score by at most 4·MaxAbsSub (two pairs touch
// the mutated residue, each by up to twice the largest substitution
// magnitude); indels additionally pay gap columns, folded in via
// |GapExtend|. Two extra mutations of slack absorb the k-mer estimate's
// noise.
//
// The bound's validity is checked, not assumed: a bound above the true
// optimum makes the seeded re-align fail (the optimal path falls outside
// the admissible band and the traceback reports it), after which the
// caller runs a full plan. A bound below the optimum merely widens the
// band. Exactness therefore never depends on this formula — only the
// patch-up's hit rate and cost do.
func SeedBound(cached mat.Score, identity float64, totalResidues int, sch *scoring.Scheme) mat.Score {
	maxSub := int64(sch.MaxAbsSub())
	ge := int64(sch.GapExtend())
	if ge < 0 {
		ge = -ge
	}
	perMutation := 4 * (maxSub + ge)
	if identity < 0 {
		identity = 0
	}
	if identity > 1 {
		identity = 1
	}
	mutations := int64(math.Ceil((1-identity)*float64(totalResidues))) + 2
	lo := int64(cached) - mutations*perMutation
	if lo < math.MinInt32 {
		lo = math.MinInt32
	}
	return mat.Score(lo)
}
