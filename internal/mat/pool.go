package mat

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/faultpoint"
)

// Buffer arena: size-classed sync.Pools of cell slices that back the
// planes, lattices, and score tables the aligners allocate per call or per
// Hirschberg sub-problem. Reusing backing arrays removes the dominant
// allocation cost of repeated alignments (batch screening, the Hirschberg
// recursion, benchmark loops) without a global free-list: sync.Pool keeps
// reuse per-P and lets the GC reclaim buffers under memory pressure.
// Lattice-sized classes are the exception: they are shared by all Ps (see
// shareClass) and expire after an idle time instead.
//
// The arena is segregated by cell width: int16 and int32 buffers live in
// separate pool sets (plus one for the int8 residue-code buffers the linear
// kernels recycle), so a width-16 lattice never pins a width-32 backing
// array and vice versa.
//
// Pooled buffers have unspecified contents. Every DP kernel in this
// repository writes each cell of its working region before reading it (or
// Fills a sentinel first), so dirty reuse is safe there; new callers that
// need zeroed memory must Fill(0) explicitly or use the New* constructors.

// numClasses bounds the pooled size classes: class c holds slices whose
// capacity is in [2^c, 2^(c+1)). 2^30 Scores = 4 GiB, the default lattice
// cap, so effectively every feasible buffer is poolable.
const numClasses = 31

// Pool-set indices by cell width.
const (
	pool16 = iota // 2-byte cells
	pool32        // 4-byte cells
	numWidths
)

var cellPools [numWidths][numClasses]sync.Pool

// A sync.Pool holds interfaces, so a pooled slice travels boxed as a *[]T.
// Get empties the box it took and parks it in cellBoxes, and Put fills a
// parked box, so a round trip allocates nothing once both pools are warm.
var cellBoxes [numWidths]sync.Pool

// boxSlice returns a parked (or new) box holding s.
func boxSlice[T any](p *sync.Pool, s []T) *[]T {
	b, _ := p.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s
	return b
}

// unboxSlice empties b, parks it in p and returns what it held.
func unboxSlice[T any](p *sync.Pool, b *[]T) []T {
	s := *b
	*b = nil
	p.Put(b)
	return s
}

// poolIndex maps a Cell type onto its width's pool set.
func poolIndex[T Cell]() int {
	if CellBytes[T]() == 2 {
		return pool16
	}
	return pool32
}

// Arena fault points. A fired get or put panics — the shape of the real
// faults this layer can suffer (an OOM-killed allocation, a corrupted
// size-class header) — and the chaos suites assert the kernels' deferred
// Puts keep the arena consistent through them: no buffer is ever handed
// out twice and a panicking kernel leaks nothing to the next caller.
var (
	fpGet = faultpoint.New("mat.arena.get")
	fpPut = faultpoint.New("mat.arena.put")
)

// sizeClass is floor(log2(n)): the pool whose slices have at least n/2 and
// at most 2n-1 elements of capacity. Classing by the slice's own capacity
// (not a rounded-up allocation size) avoids up-to-2x memory waste on large
// lattices; the price is an occasional pool miss when a smaller same-class
// buffer is returned, which Get handles by allocating fresh.
func sizeClass(n int) int {
	return bits.Len(uint(n)) - 1
}

// GetCells returns a cell slice of length n with unspecified contents,
// reusing a pooled backing array of the same width when one is large
// enough. Put it back with PutCells when no longer referenced.
func GetCells[T Cell](n int) []T {
	if fpGet.Fire() {
		panic("faultpoint: mat.arena.get")
	}
	if n <= 0 {
		return nil
	}
	w := poolIndex[T]()
	switch c := sizeClass(n); {
	case c >= numClasses:
	case c >= shareClass:
		if base, capacity := sharedCells[w][c].get(n); base != nil {
			return unsafe.Slice((*T)(base), capacity)[:n]
		}
	default:
		if v, _ := cellPools[w][c].Get().(*[]T); v != nil {
			if s := unboxSlice(&cellBoxes[w], v); cap(s) >= n {
				return s[:n]
			}
		}
	}
	return make([]T, n)
}

// PutCells returns a slice obtained from GetCells (or any other cell slice)
// to the arena. The caller must not use s, or any alias of it, after the
// call — the buffer will be handed to a future GetCells.
func PutCells[T Cell](s []T) {
	if fpPut.Fire() {
		panic("faultpoint: mat.arena.put")
	}
	n := cap(s)
	if n == 0 {
		return
	}
	w := poolIndex[T]()
	switch c := sizeClass(n); {
	case c >= numClasses:
	case c >= shareClass:
		sharedCells[w][c].put(unsafe.Pointer(unsafe.SliceData(s)), n)
	default:
		cellPools[w][c].Put(boxSlice(&cellBoxes[w], s[:n]))
	}
}

// Lattice-sized classes are shared by all Ps. sync.Pool parks a returned
// buffer in the putting P's private slot, which no other P can take: with
// two Ps, a request whose kernel lands on the other P allocated a second
// lattice, and once a GC had moved the first into that P's victim slot, a
// third. A shared class is instead one short mutex-guarded list that any
// P takes from. Get takes the smallest buffer that fits and leaves
// too-small ones listed for smaller requests, rather than dropping one and
// allocating anyway.
//
// Idle buffers expire by time, not by GC cycles: a lattice a rare request
// allocated would otherwise stay resident until the heap's next GCs, which
// a service that makes little garbage may not need for seconds. A sweep
// drops a buffer listed for idleExpiry and returns a large drop to the OS
// at once.
const (
	// shareClass is the first shared size class: 2^20 cells, 2 MiB of
	// int16 or 4 MiB of int32. Smaller buffers are per-call tables and
	// planes, cheap to allocate twice and hot enough to want per-P pools.
	shareClass = 20
	// idleExpiry bounds how long a listed buffer waits for reuse.
	idleExpiry = 250 * time.Millisecond
	// releaseBytes is the dropped volume past which a sweep hands freed
	// memory back to the OS instead of waiting for the GC and scavenger.
	releaseBytes = 16 << 20
)

// sharedKeep bounds the buffers one shared class holds, one per P — what
// sync.Pool's private slots held; Put drops the smallest beyond it.
func sharedKeep() int { return runtime.GOMAXPROCS(0) }

// sharedEntry is one listed buffer, held unboxed as its base address and
// capacity in cells of the class's width, and when it was put.
type sharedEntry struct {
	base  unsafe.Pointer
	cap   int
	putAt time.Time
}

// sharedClass is one shared size class.
type sharedClass struct {
	mu   sync.Mutex
	bufs []sharedEntry
}

var (
	sharedCells [numWidths][numClasses]sharedClass
	sweepArmed  atomic.Bool
)

// get removes the smallest listed buffer with capacity ≥ n and returns its
// base and capacity, or a nil base.
func (sc *sharedClass) get(n int) (unsafe.Pointer, int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	at := -1
	for x, e := range sc.bufs {
		if e.cap >= n && (at < 0 || e.cap < sc.bufs[at].cap) {
			at = x
		}
	}
	if at < 0 {
		return nil, 0
	}
	e := sc.bufs[at]
	sc.bufs = slices.Delete(sc.bufs, at, at+1)
	return e.base, e.cap
}

// put lists a buffer, dropping the smallest listed buffer when the class
// is full, and makes sure a sweep will expire it.
func (sc *sharedClass) put(base unsafe.Pointer, capacity int) {
	sc.mu.Lock()
	sc.bufs = append(sc.bufs, sharedEntry{base, capacity, time.Now()})
	if len(sc.bufs) > sharedKeep() {
		at := 0
		for x, e := range sc.bufs {
			if e.cap < sc.bufs[at].cap {
				at = x
			}
		}
		sc.bufs = slices.Delete(sc.bufs, at, at+1)
	}
	sc.mu.Unlock()
	armSweep()
}

// armSweep schedules sweepShared unless a sweep is already pending.
func armSweep() {
	if sweepArmed.CompareAndSwap(false, true) {
		time.AfterFunc(idleExpiry, sweepShared)
	}
}

// sweepShared drops expired shared buffers, re-arms itself while any
// buffer stays listed, and returns a large drop to the OS.
func sweepShared() {
	sweepArmed.Store(false)
	now := time.Now()
	var dropped int64
	listed := false
	for w := range sharedCells {
		cellBytes := int64(2)
		if w == pool32 {
			cellBytes = 4
		}
		for c := shareClass; c < numClasses; c++ {
			sc := &sharedCells[w][c]
			sc.mu.Lock()
			kept := sc.bufs[:0]
			for _, e := range sc.bufs {
				if now.Sub(e.putAt) < idleExpiry {
					kept = append(kept, e)
				} else {
					dropped += int64(e.cap) * cellBytes
				}
			}
			clear(sc.bufs[len(kept):])
			sc.bufs = kept
			listed = listed || len(kept) > 0
			sc.mu.Unlock()
		}
	}
	if listed {
		armSweep()
	}
	if dropped >= releaseBytes {
		debug.FreeOSMemory()
	}
}

// GetScores returns a Score slice of length n from the arena; it is
// GetCells at the default width.
func GetScores(n int) []Score { return GetCells[Score](n) }

// PutScores returns a slice obtained from GetScores to the arena.
func PutScores(s []Score) { PutCells(s) }

// codePools holds the int8 residue-code buffers (reversed sequences in the
// Hirschberg recursion) under the same size-class discipline, and
// codeBoxes their parked boxes.
var (
	codePools [numClasses]sync.Pool
	codeBoxes sync.Pool
)

// GetCodes returns an int8 slice of length n with unspecified contents from
// the code arena. Put it back with PutCodes when no longer referenced.
func GetCodes(n int) []int8 {
	if fpGet.Fire() {
		panic("faultpoint: mat.arena.get")
	}
	if n <= 0 {
		return nil
	}
	if c := sizeClass(n); c < numClasses {
		if v, _ := codePools[c].Get().(*[]int8); v != nil {
			if s := unboxSlice(&codeBoxes, v); cap(s) >= n {
				return s[:n]
			}
		}
	}
	return make([]int8, n)
}

// PutCodes returns a slice obtained from GetCodes to the code arena. The
// caller must not use s, or any alias of it, after the call.
func PutCodes(s []int8) {
	if fpPut.Fire() {
		panic("faultpoint: mat.arena.put")
	}
	n := cap(s)
	if n == 0 {
		return
	}
	if c := sizeClass(n); c < numClasses {
		codePools[c].Put(boxSlice(&codeBoxes, s[:n]))
	}
}

// Header pools, segregated by width like the backing arrays. A pool stores
// exactly one concrete header type per slot; the type assertion in the
// generic getters falls back to a fresh header on the (never-in-practice)
// mismatch of two same-width named cell types sharing a pool.
var (
	planePools  [numWidths]sync.Pool
	tensorPools [numWidths]sync.Pool
)

// GetPlane returns a rows×cols Score plane with unspecified contents,
// drawing its backing array from the arena. It panics on negative
// dimensions, matching NewPlane.
func GetPlane(rows, cols int) *Plane { return GetPlaneOf[Score](rows, cols) }

// GetPlaneOf is GetPlane at an arbitrary cell width.
func GetPlaneOf[T Cell](rows, cols int) *PlaneOf[T] {
	p, _ := planePools[poolIndex[T]()].Get().(*PlaneOf[T])
	if p == nil {
		p = new(PlaneOf[T])
	}
	p.rows, p.cols = checkPlaneDims(rows, cols)
	p.data = GetCells[T](rows * cols)
	return p
}

// PutPlane returns a plane and its backing array to the arena. The caller
// must not use p — or any Row slice obtained from it — after the call.
// A nil plane is a no-op.
func PutPlane(p *Plane) { PutPlaneOf(p) }

// PutPlaneOf is PutPlane at an arbitrary cell width.
func PutPlaneOf[T Cell](p *PlaneOf[T]) {
	if p == nil {
		return
	}
	PutCells(p.data)
	p.data = nil
	p.rows, p.cols = 0, 0
	planePools[poolIndex[T]()].Put(p)
}

// GetTensor3 returns an ni×nj×nk Score tensor with unspecified contents,
// drawing its backing array from the arena. It panics on negative
// dimensions or int overflow, matching NewTensor3.
func GetTensor3(ni, nj, nk int) *Tensor3 { return GetTensor3Of[Score](ni, nj, nk) }

// GetTensor3Of is GetTensor3 at an arbitrary cell width — the entry point
// width-negotiated lattices allocate through.
func GetTensor3Of[T Cell](ni, nj, nk int) *Tensor3Of[T] {
	n := checkTensorDims(ni, nj, nk)
	t, _ := tensorPools[poolIndex[T]()].Get().(*Tensor3Of[T])
	if t == nil {
		t = new(Tensor3Of[T])
	}
	t.ni, t.nj, t.nk = ni, nj, nk
	t.strideI = nj * nk
	t.data = GetCells[T](n)
	return t
}

// PutTensor3 returns a tensor and its backing array to the arena. The
// caller must not use t — or any Lane slice obtained from it — after the
// call. A nil tensor is a no-op.
func PutTensor3(t *Tensor3) { PutTensor3Of(t) }

// PutTensor3Of is PutTensor3 at an arbitrary cell width.
func PutTensor3Of[T Cell](t *Tensor3Of[T]) {
	if t == nil {
		return
	}
	PutCells(t.data)
	t.data = nil
	t.ni, t.nj, t.nk, t.strideI = 0, 0, 0, 0
	tensorPools[poolIndex[T]()].Put(t)
}
