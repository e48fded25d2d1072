package mat

import "fmt"

// BandTensor3 is sparse per-row storage for a 3D score lattice restricted
// to a band: each i-row stores a contiguous j-hull [jLo[i], jHi[i]), and
// each (i, j) lane inside the hull stores one contiguous k-interval
// [kLo, kHi). Reads outside the stored band return NegInf, which is
// exactly the value a Carrillo–Lipman-pruned cell holds in the dense
// kernels — so the banded DP and its traceback see the same lattice the
// pruned full-matrix kernel would have produced, at a memory cost that
// scales with the admitted band instead of ni·nj·nk.
//
// Cell values are always Score width: the band kernels trade the packed
// kernels' width negotiation for sparsity, and NegInf only exists at
// Score width.
type BandTensor3 struct {
	ni, nj, nk int
	jLo, jHi   []int32    // per-i j-hull, length ni
	laneOff    []int      // per-i index of row i's first lane record
	lanes      []bandLane // one record per (i, j) inside the hull
	data       []Score
}

// bandLane is one stored k-interval: cells [kLo, kHi) live at
// data[off : off+kHi-kLo]. Zero-width lanes (kLo >= kHi) occupy a record
// but no data.
type bandLane struct {
	kLo, kHi int32
	off      int
}

// bandLaneBytes is the index cost per stored lane record.
const bandLaneBytes = 16

// bandRowBytes is the per-row index cost (jLo, jHi, laneOff).
const bandRowBytes = 16

// BandTensor3Bytes predicts, without allocating, the footprint of a band
// with the given stored cell count, lane-record count, and row count. The
// band kernels use it for memory admission before building the band.
func BandTensor3Bytes(cells, lanes, rows int64) int64 {
	return cells*int64(scoreSize) + lanes*bandLaneBytes + rows*bandRowBytes
}

// NewBandTensor3 builds a band from per-row hulls and per-lane
// k-intervals. jLo and jHi must have length ni; kLo and kHi hold the lane
// intervals of every row concatenated in i order — jHi[i]−jLo[i] entries
// for row i. Intervals are clamped conventions, not validated deeply: a
// lane with kLo ≥ kHi stores nothing. The data slab is drawn from the mat
// arena with unspecified contents (the band kernels write every stored
// cell before reading it); release the band with Release.
func NewBandTensor3(ni, nj, nk int, jLo, jHi, kLo, kHi []int32) *BandTensor3 {
	if ni < 0 || nj < 0 || nk < 0 {
		panic(fmt.Sprintf("mat: band tensor %dx%dx%d: negative dimension", ni, nj, nk))
	}
	if len(jLo) != ni || len(jHi) != ni {
		panic(fmt.Sprintf("mat: band tensor: %d rows, %d/%d hull entries", ni, len(jLo), len(jHi)))
	}
	b := &BandTensor3{
		ni: ni, nj: nj, nk: nk,
		jLo:     jLo,
		jHi:     jHi,
		laneOff: make([]int, ni+1),
	}
	nLanes := 0
	for i := 0; i < ni; i++ {
		b.laneOff[i] = nLanes
		if w := int(jHi[i]) - int(jLo[i]); w > 0 {
			nLanes += w
		}
	}
	b.laneOff[ni] = nLanes
	if len(kLo) != nLanes || len(kHi) != nLanes {
		panic(fmt.Sprintf("mat: band tensor: %d lanes in hull, %d/%d intervals", nLanes, len(kLo), len(kHi)))
	}
	b.lanes = make([]bandLane, nLanes)
	off := 0
	for l := 0; l < nLanes; l++ {
		lo, hi := kLo[l], kHi[l]
		if hi < lo {
			hi = lo
		}
		b.lanes[l] = bandLane{kLo: lo, kHi: hi, off: off}
		off += int(hi - lo)
	}
	b.data = GetCells[Score](off)
	return b
}

// Release returns the data slab to the arena. The band must not be used
// afterwards. A nil band is a no-op.
func (b *BandTensor3) Release() {
	if b == nil {
		return
	}
	PutCells(b.data)
	b.data = nil
	b.lanes = nil
}

// Dims returns the dense dimensions the band is a subset of.
func (b *BandTensor3) Dims() (ni, nj, nk int) { return b.ni, b.nj, b.nk }

// Cells reports the number of stored cells.
func (b *BandTensor3) Cells() int64 { return int64(len(b.data)) }

// Bytes reports the heap footprint of the band: data slab plus index.
func (b *BandTensor3) Bytes() int64 {
	return BandTensor3Bytes(int64(len(b.data)), int64(len(b.lanes)), int64(b.ni))
}

// lane returns the lane record for (i, j), or nil when (i, j) is outside
// the row hull.
func (b *BandTensor3) lane(i, j int) *bandLane {
	if i < 0 || i >= b.ni {
		return nil
	}
	lo := int(b.jLo[i])
	if j < lo || j >= int(b.jHi[i]) {
		return nil
	}
	return &b.lanes[b.laneOff[i]+j-lo]
}

// Lane returns the stored slice for lane (i, j) together with the k index
// of its first element. ok is false — and the slice nil — when the lane is
// outside the hull or stores no cells. Writes through the slice are
// visible in the band.
func (b *BandTensor3) Lane(i, j int) (cells []Score, kLo int, ok bool) {
	l := b.lane(i, j)
	if l == nil || l.kLo >= l.kHi {
		return nil, 0, false
	}
	return b.data[l.off : l.off+int(l.kHi-l.kLo)], int(l.kLo), true
}

// BandRow is one i-row of a band, for kernels that walk its lanes in j
// order: its Lane(j) is the band's Lane(i, j) without the row lookup.
type BandRow struct {
	jLo   int
	lanes []bandLane
	data  []Score
}

// Row returns row i of the band; a row outside [0, ni) has no lanes.
func (b *BandTensor3) Row(i int) BandRow {
	if i < 0 || i >= b.ni {
		return BandRow{}
	}
	return BandRow{jLo: int(b.jLo[i]), lanes: b.lanes[b.laneOff[i]:b.laneOff[i+1]], data: b.data}
}

// Lane returns the stored slice of the row's lane j and the k index of its
// first element, as BandTensor3.Lane does.
func (r BandRow) Lane(j int) (cells []Score, kLo int, ok bool) {
	x := j - r.jLo
	if x < 0 || x >= len(r.lanes) {
		return nil, 0, false
	}
	l := r.lanes[x]
	if l.kLo >= l.kHi {
		return nil, 0, false
	}
	return r.data[l.off : l.off+int(l.kHi-l.kLo)], int(l.kLo), true
}

// At returns the value at (i, j, k), or NegInf when the cell is not
// stored — the pruned-cell convention of the dense Carrillo–Lipman
// kernels.
func (b *BandTensor3) At(i, j, k int) Score {
	l := b.lane(i, j)
	if l == nil || k < int(l.kLo) || k >= int(l.kHi) {
		return NegInf
	}
	return b.data[l.off+k-int(l.kLo)]
}

// Set stores v at (i, j, k). It panics when the cell is outside the band:
// band cells are planned before the fill, so an out-of-band write is a
// kernel bug, never data-dependent.
func (b *BandTensor3) Set(i, j, k int, v Score) {
	l := b.lane(i, j)
	if l == nil || k < int(l.kLo) || k >= int(l.kHi) {
		panic(fmt.Sprintf("mat: band Set(%d,%d,%d) outside the stored band", i, j, k))
	}
	b.data[l.off+k-int(l.kLo)] = v
}
