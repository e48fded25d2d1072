package resultcache

import (
	"encoding/binary"

	"repro/internal/mat"
	"repro/internal/seq"
)

// Candidate is one near-duplicate match: a cached triple whose sketch
// identity to the probe met the threshold, with its cached score. alignd
// no longer asks for one; Candidate, Nearest and sameScheme are kept only
// for the benchmark's traced layers (cache.nearest_us,
// cache.neardup_share).
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
// re-align proved or rejected it regardless), so finishing the scan buys
// nothing once one is in hand.
//
// Nearest skips checksum verification: its answer only ever proposed a
// seed for a verified re-align. alignd no longer calls it; it is kept only
// for the benchmark's traced cache.nearest_us layer.
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
// every entry with the given Meta and a sketch of size k. Only Nearest
// calls it, for the benchmark's traced layers.
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
