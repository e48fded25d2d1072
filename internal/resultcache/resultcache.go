// Package resultcache is the serving layer's content-addressed alignment
// result cache: a byte-budgeted LRU keyed by a hash of the canonical
// request semantics (sequences, scoring scheme, resolved algorithm), with
// singleflight collapsing of concurrent identical requests (flight.go). The
// k-mer near-duplicate scan (neardup.go) is no longer called by alignd; it
// is kept only for the benchmark's traced layers.
//
// The cache stores clones, returns clones, and checksums every entry at
// admission: a stored result that no longer matches its checksum — bit
// rot, a faulty mutation, an injected corruption fault — is dropped and
// reported as a miss rather than served. A cache can make a request slow
// (miss) but never wrong.
//
// Eviction is cost-weighted LRU: when the byte budget overflows, the
// evictor scans a small window at the cold tail and evicts the entry whose
// planned compute cost is lowest, so the entries that were expensive to
// produce — the ones the cache exists for — survive the longest.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"

	repro "repro"
	"repro/internal/alignment"
	"repro/internal/faultpoint"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// Key is the content address of one alignment request: sha256 over the
// canonical serialization of everything that determines the exact result —
// the three sequences (names and residues), the full scoring scheme
// (alphabet, substitution table, gap costs), and the canonicalized
// algorithm request. Execution knobs that cannot change the optimal
// alignment (workers, deadlines, memory caps) are deliberately excluded,
// so semantically identical requests collide onto one entry regardless of
// how they were tuned.
type Key [sha256.Size]byte

// String renders the key as hex (log and debug output).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Meta is the hash of the key's non-sequence prefix: scheme plus
// algorithm. Two requests share a Meta exactly when they differ only in
// their sequences — the candidate filter of the near-duplicate scan,
// which may match across different sequences but never across different
// scoring semantics.
type Meta [sha256.Size]byte

// keyVersion is serialized first so any change to the derivation scheme
// invalidates every old key instead of colliding with it.
const keyVersion = "tsa-result-cache-v1"

// KeyFor derives the content address and meta hash of one request.
// The algorithm string is canonicalized (lowercased, "" meaning "auto"),
// so a request that spells the default explicitly keys identically to one
// that omits it. The scheme is serialized by value — alphabet letters,
// every substitution score, both gap costs — so two schemes that score
// identically key identically even if they are distinct objects with
// different display names.
func KeyFor(tr seq.Triple, sch *scoring.Scheme, algorithm string) (Key, Meta) {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	writeStr := func(s string) {
		n := binary.PutUvarint(buf[:], uint64(len(s)))
		h.Write(buf[:n])
		io.WriteString(h, s) //nolint:errcheck // sha256 never fails
	}
	writeInt := func(v int64) {
		n := binary.PutVarint(buf[:], v)
		h.Write(buf[:n])
	}
	writeStr(keyVersion)
	alpha := sch.Alphabet()
	writeStr(alpha.Letters())
	size := alpha.Size()
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			writeInt(int64(sch.Sub(int8(i), int8(j))))
		}
	}
	writeInt(int64(sch.GapOpen()))
	writeInt(int64(sch.GapExtend()))
	algorithm = strings.ToLower(strings.TrimSpace(algorithm))
	if algorithm == "" {
		// AlgorithmAuto is the empty string; serialize a stable token so
		// "default" and a hypothetical future named spelling agree.
		algorithm = "auto"
	}
	writeStr(algorithm)
	var meta Meta
	h.Sum(meta[:0])
	for _, sq := range []*seq.Sequence{tr.A, tr.B, tr.C} {
		writeStr(sq.Name())
		writeStr(sq.String())
	}
	var key Key
	h.Sum(key[:0])
	return key, meta
}

// Fault points. Both corrupt the cache's private clone of an entry (never
// a result already handed to a caller), modeling silent in-cache bit rot
// on the two paths it can enter: while stored (observed at Get) and during
// admission (observed at the next Get). The checksum must catch both — a
// corrupted entry is dropped and re-computed, never served.
var (
	fpGetCorrupt = faultpoint.New("resultcache.get.corrupt")
	fpPutCorrupt = faultpoint.New("resultcache.put.corrupt")
)

// corruptMask is the score perturbation an injected corruption applies —
// any nonzero flip works; the checksum does the detecting.
const corruptMask = 0x5a5a

// entry is one cached result with its eviction and integrity metadata.
type entry struct {
	key    Key
	meta   Meta
	res    *repro.Result     // the cache's private clone
	sketch *seq.TripleSketch // nil when the producer had none
	cost   time.Duration     // planned compute cost; eviction weight
	bytes  int64
	sum    uint64 // fnv64a over the semantic content of res
	elem   *list.Element
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	CorruptDropped int64
	Entries        int64
	Bytes          int64
}

// Cache is the byte-budgeted, cost-weighted LRU result cache. All methods
// are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[Key]*entry

	hits           int64
	misses         int64
	evictions      int64
	corruptDropped int64
}

// evictScan is how many cold-tail entries the evictor considers per
// eviction: enough to usually find a cheap victim near the tail, small
// enough that eviction stays O(1)-ish under the lock.
const evictScan = 8

// New builds a cache with the given byte budget. A non-positive budget
// returns nil — the callers' "caching disabled" signal; every method on a
// nil *Cache is a safe no-op miss.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	return &Cache{budget: budgetBytes, ll: list.New(), entries: make(map[Key]*entry)}
}

// Get returns a clone of the cached result for key, verifying the entry's
// checksum first: an entry that fails verification is dropped, counted in
// CorruptDropped, and reported as a miss, so a corrupted cache degrades to
// recomputation instead of serving a wrong score. Nil-safe.
func (c *Cache) Get(key Key) (*repro.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	if fpGetCorrupt.Fire() {
		e.res.Score ^= corruptMask
	}
	if checksum(e.res) != e.sum {
		c.removeLocked(e)
		c.corruptDropped++
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(e.elem)
	c.hits++
	return cloneResult(e.res), true
}

// Put admits a result under key, cloning it so later caller mutations
// cannot reach the stored copy, and evicts cost-weighted LRU victims until
// the byte budget holds again. A result bigger than the whole budget is
// refused. Degraded results must not be cached (their content depends on
// the deadline that produced them, which is not part of the key); Put
// refuses them. Returns whether the entry was admitted. Nil-safe.
//
// sketch is stored for Nearest and may be nil. alignd passes nil; the
// parameter is kept only for the benchmark's traced layers
// (cache.nearest_us).
func (c *Cache) Put(key Key, meta Meta, res *repro.Result, cost time.Duration, sketch *seq.TripleSketch) bool {
	if c == nil || res == nil || res.Alignment == nil || res.Degraded {
		return false
	}
	clone := cloneResult(res)
	sum := checksum(clone)
	if fpPutCorrupt.Fire() {
		clone.Score ^= corruptMask
	}
	e := &entry{key: key, meta: meta, res: clone, sketch: sketch, cost: cost, sum: sum}
	e.bytes = entryBytes(clone, sketch)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes > c.budget {
		return false
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	c.entries[key] = e
	e.elem = c.ll.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget {
		c.evictOneLocked()
	}
	return true
}

// Stats snapshots the counters and gauges. Nil-safe (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		CorruptDropped: c.corruptDropped,
		Entries:        int64(len(c.entries)),
		Bytes:          c.bytes,
	}
}

// Len reports the current entry count. Nil-safe.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the current byte gauge. Nil-safe.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// removeLocked unlinks one entry; callers hold mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	if e.elem != nil {
		c.ll.Remove(e.elem)
		e.elem = nil
	}
	c.bytes -= e.bytes
}

// evictOneLocked evicts the cheapest entry within the evictScan-deep cold
// tail: plain LRU would evict strictly by recency, but an expensive result
// that went briefly cold is exactly what the cache should keep — it saves
// the most compute on its next hit. Callers hold mu and guarantee the list
// is non-empty.
func (c *Cache) evictOneLocked() {
	victim := c.ll.Back()
	scanned := 0
	for el := c.ll.Back(); el != nil && scanned < evictScan; el = el.Prev() {
		if el.Value.(*entry).cost < victim.Value.(*entry).cost {
			victim = el
		}
		scanned++
	}
	c.removeLocked(victim.Value.(*entry))
	c.evictions++
}

// cloneResult deep-copies the parts of a Result a caller (or the cache)
// could mutate: the Result struct itself, the embedded Alignment, and its
// Moves slice. Sequences are immutable after construction and Plan/Prune
// are write-once metadata, so those pointers are shared.
func cloneResult(res *repro.Result) *repro.Result {
	out := *res
	aln := *res.Alignment
	aln.Moves = append([]alignment.Move(nil), res.Alignment.Moves...)
	out.Alignment = &aln
	if res.Prune != nil {
		pr := *res.Prune
		out.Prune = &pr
	}
	return &out
}

// checksum folds the semantic content of a result — score, algorithm,
// column moves, and the three sequences' names and residues — into an
// fnv64a sum. Anything that changes what a client would be told changes
// the sum.
func checksum(res *repro.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(res.Score))
	h.Write(buf[:4])
	io.WriteString(h, string(res.Algorithm)) //nolint:errcheck // fnv never fails
	for _, m := range res.Alignment.Moves {
		h.Write([]byte{byte(m)})
	}
	tr := res.Alignment.Triple
	for _, sq := range []*seq.Sequence{tr.A, tr.B, tr.C} {
		io.WriteString(h, sq.Name())   //nolint:errcheck
		io.WriteString(h, sq.String()) //nolint:errcheck
	}
	return h.Sum64()
}

// entryBytes estimates one entry's heap footprint: moves, the three
// sequences (residues, names, struct overhead), the sketch, and fixed
// bookkeeping. An estimate is fine — the budget bounds memory order, not
// exact bytes — but it must never be zero, or a byte budget would admit
// unboundedly many entries.
func entryBytes(res *repro.Result, sketch *seq.TripleSketch) int64 {
	n := int64(len(res.Alignment.Moves))
	tr := res.Alignment.Triple
	for _, sq := range []*seq.Sequence{tr.A, tr.B, tr.C} {
		n += int64(sq.Len()) + int64(len(sq.Name())) + 64
	}
	if sketch != nil {
		n += sketch.Bytes()
	}
	return n + 256
}
