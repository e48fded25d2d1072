// Package mat provides flat, cache-friendly numeric storage for the
// dynamic-programming lattices used by the alignment algorithms.
//
// A three-sequence alignment fills a (n+1)×(m+1)×(p+1) score lattice; a
// pairwise alignment fills a (n+1)×(m+1) plane. Both are backed by a single
// contiguous slice so the innermost loop walks memory linearly, and so a
// whole lattice can be handed to concurrent writers that own disjoint index
// ranges without any per-row pointer chasing.
//
// Storage is parameterized over the Cell constraint (int16 or int32): the
// memory-bandwidth-bound interior loops run ~2× less traffic per cell at 16
// bits, and the execution planner (internal/plan) proves per request when
// the narrow width cannot overflow. Score — the arithmetic and API type
// used everywhere outside a width-negotiated lattice — remains int32.
//
// With substitution scores bounded by |s| ≤ 127 and three pairs per column,
// a column contributes at most ~381, so 32 bits overflow only past ~5.6
// million alignment columns — far beyond any lattice this package can
// allocate. NegInf is a large negative sentinel chosen so that adding a
// column score to it cannot wrap around; it exists only at Score width, so
// kernels that seed NegInf (the affine family) must use Score lattices.
package mat

import (
	"fmt"
	"unsafe"
)

// Cell constrains the storable lattice cell types. int32 is the default and
// always safe; int16 is chosen by the planner only when the problem's score
// bound provably fits (see internal/plan's width negotiation).
type Cell interface {
	~int16 | ~int32
}

// Score is the arithmetic type used throughout the dynamic programs.
type Score = int32

// NegInf is the "minus infinity" sentinel for unreachable DP states. It is
// far below any reachable score yet far above math.MinInt32, so adding a
// bounded column score to it never overflows.
const NegInf Score = -1 << 29

// CellBytes reports sizeof(T) — the per-cell storage cost of a T lattice.
func CellBytes[T Cell]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// PlaneOf is a dense 2D cell array backed by one allocation.
type PlaneOf[T Cell] struct {
	rows, cols int
	data       []T
}

// Plane is the Score-width plane used by the public helpers and every
// accumulator-width kernel.
type Plane = PlaneOf[Score]

// NewPlane returns a zeroed rows×cols Score plane. It panics if either
// dimension is negative; a zero-sized plane is valid and empty.
func NewPlane(rows, cols int) *Plane { return NewPlaneOf[Score](rows, cols) }

// NewPlaneOf returns a zeroed rows×cols plane of T cells.
func NewPlaneOf[T Cell](rows, cols int) *PlaneOf[T] {
	rows, cols = checkPlaneDims(rows, cols)
	return &PlaneOf[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

func checkPlaneDims(rows, cols int) (int, int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: plane %dx%d: negative dimension", rows, cols))
	}
	return rows, cols
}

// Rows returns the number of rows.
func (p *PlaneOf[T]) Rows() int { return p.rows }

// Cols returns the number of columns.
func (p *PlaneOf[T]) Cols() int { return p.cols }

// At returns the value at (i, j).
func (p *PlaneOf[T]) At(i, j int) T { return p.data[i*p.cols+j] }

// Set stores v at (i, j).
func (p *PlaneOf[T]) Set(i, j int, v T) { p.data[i*p.cols+j] = v }

// Row returns the i-th row as a shared slice; writes through the slice are
// visible in the plane.
func (p *PlaneOf[T]) Row(i int) []T { return p.data[i*p.cols : (i+1)*p.cols] }

// Fill sets every cell to v.
func (p *PlaneOf[T]) Fill(v T) { fillCells(p.data, v) }

// Cells returns the backing cells as a shared slice, row i at i·Cols().
func (p *PlaneOf[T]) Cells() []T { return p.data }

// fillCells sets every element of s to v with the first-element +
// doubling-copy idiom, which the runtime turns into wide memmove calls —
// several times faster than an element loop for the NegInf fills the affine
// kernels perform on every lattice.
func fillCells[T Cell](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for filled := 1; filled < len(s); filled *= 2 {
		copy(s[filled:], s[:filled])
	}
}

// CopyFrom copies src into p. It panics if the shapes differ.
func (p *PlaneOf[T]) CopyFrom(src *PlaneOf[T]) {
	if p.rows != src.rows || p.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch: dst %dx%d, src %dx%d",
			p.rows, p.cols, src.rows, src.cols))
	}
	copy(p.data, src.data)
}

// Bytes reports the heap footprint of the backing array.
func (p *PlaneOf[T]) Bytes() int64 { return int64(len(p.data)) * int64(CellBytes[T]()) }

const scoreSize = 4 // sizeof(Score)

// Tensor3Of is a dense 3D cell array backed by one allocation, indexed as
// [i][j][k] with k fastest-varying.
type Tensor3Of[T Cell] struct {
	ni, nj, nk int
	strideI    int // nj*nk
	data       []T
}

// Tensor3 is the Score-width lattice used wherever the cell width is not
// planner-negotiated.
type Tensor3 = Tensor3Of[Score]

// NewTensor3 returns a zeroed ni×nj×nk Score tensor. It panics if a
// dimension is negative or if the total element count would overflow int.
func NewTensor3(ni, nj, nk int) *Tensor3 { return NewTensor3Of[Score](ni, nj, nk) }

// NewTensor3Of returns a zeroed ni×nj×nk tensor of T cells.
func NewTensor3Of[T Cell](ni, nj, nk int) *Tensor3Of[T] {
	n := checkTensorDims(ni, nj, nk)
	return &Tensor3Of[T]{ni: ni, nj: nj, nk: nk, strideI: nj * nk, data: make([]T, n)}
}

func checkTensorDims(ni, nj, nk int) int {
	if ni < 0 || nj < 0 || nk < 0 {
		panic(fmt.Sprintf("mat: tensor %dx%dx%d: negative dimension", ni, nj, nk))
	}
	n, ok := checkedMul3(ni, nj, nk)
	if !ok {
		panic(fmt.Sprintf("mat: tensor %dx%dx%d: size overflows", ni, nj, nk))
	}
	return n
}

func checkedMul3(a, b, c int) (int, bool) {
	ab := a * b
	if a != 0 && ab/a != b {
		return 0, false
	}
	abc := ab * c
	if ab != 0 && abc/ab != c {
		return 0, false
	}
	return abc, true
}

// Dims returns the three dimensions.
func (t *Tensor3Of[T]) Dims() (ni, nj, nk int) { return t.ni, t.nj, t.nk }

// Index returns the flat offset of (i, j, k).
func (t *Tensor3Of[T]) Index(i, j, k int) int { return i*t.strideI + j*t.nk + k }

// At returns the value at (i, j, k).
func (t *Tensor3Of[T]) At(i, j, k int) T { return t.data[i*t.strideI+j*t.nk+k] }

// Set stores v at (i, j, k).
func (t *Tensor3Of[T]) Set(i, j, k int, v T) { t.data[i*t.strideI+j*t.nk+k] = v }

// Lane returns the k-lane at (i, j) as a shared slice of length nk.
func (t *Tensor3Of[T]) Lane(i, j int) []T {
	off := i*t.strideI + j*t.nk
	return t.data[off : off+t.nk]
}

// Slab returns the i-th (j,k) plane as a shared slice of nj·nk cells,
// lane j at j·nk.
func (t *Tensor3Of[T]) Slab(i int) []T { return t.data[i*t.strideI : (i+1)*t.strideI] }

// PlaneI copies the i-th (j,k) plane into dst, which must be nj×nk.
func (t *Tensor3Of[T]) PlaneI(i int, dst *PlaneOf[T]) {
	if dst.rows != t.nj || dst.cols != t.nk {
		panic(fmt.Sprintf("mat: PlaneI shape mismatch: plane %dx%d, tensor j,k %dx%d",
			dst.rows, dst.cols, t.nj, t.nk))
	}
	copy(dst.data, t.data[i*t.strideI:(i+1)*t.strideI])
}

// Fill sets every cell to v.
func (t *Tensor3Of[T]) Fill(v T) { fillCells(t.data, v) }

// Bytes reports the heap footprint of the backing array.
func (t *Tensor3Of[T]) Bytes() int64 { return int64(len(t.data)) * int64(CellBytes[T]()) }

// Tensor3Bytes predicts, without allocating, the backing-array footprint of
// NewTensor3(ni, nj, nk) at the default Score width. It is used by the
// memory experiment (T2) and by callers that want to refuse infeasible
// problem sizes up front. Width-negotiated lattices cost
// ni·nj·nk·CellBytes[T] instead; the planner's estimators own that math.
func Tensor3Bytes(ni, nj, nk int) int64 {
	return int64(ni) * int64(nj) * int64(nk) * int64(scoreSize)
}

// PlaneBytes predicts the backing-array footprint of NewPlane(rows, cols).
func PlaneBytes(rows, cols int) int64 {
	return int64(rows) * int64(cols) * int64(scoreSize)
}
