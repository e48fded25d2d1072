package core

import (
	"math"

	"repro/internal/wavefront"
)

// Adaptive pencil tiling.
//
// The lattices are laid out with k as the unit-stride (innermost) axis, and
// the lane-packed interior fills a whole (i, j) k-lane per call: AVX2 blocks
// of 16 (int16) or 8 (int32) cells, then a scalar tail. A tile that cuts k
// leaves such a tail in every lane of every k block, so the blocked 3D
// fills use "pencil" tiles that span the whole k axis and run the paper's
// wavefront on the (i, j) grid alone. The i and j edges set how much of the
// (i-1)- and (j-1)-lane state must stay resident while a tile fills, so they
// are sized to keep a tile's working set — roughly two tj×nk predecessor
// faces per lattice — within half of L2, then shrunk until the (i, j) block
// grid is wide enough to feed every worker: its mid-run anti-diagonal holds
// at most one block per (bi, bj) lane, so the lane count must exceed the
// worker count or the schedule starves regardless of cache behaviour.

// tileL2Bytes is the per-core cache budget the tile working set is sized
// against — half of a conservative 512 KiB L2, leaving room for the score
// tables and scheduler state.
const tileL2Bytes = 256 << 10

// tileMinEdge / tileMaxEdge clamp the i and j edges of a pencil tile.
// Below 8 the per-tile scheduling cost stops being small next to a tile's
// tj×nk-cell faces.
const (
	tileMinEdge = 8
	tileMaxEdge = 64
)

// blocksAlong returns the number of tiles covering an axis of length n.
func blocksAlong(n, tile int) int {
	if n <= 0 {
		return 0
	}
	return (n + tile - 1) / tile
}

// l2Edge is the square cross-section edge whose two predecessor faces of
// lane cells fit the L2 budget, clamped to [lo, tileMaxEdge].
func l2Edge(lane, bytesPerCell, lo int) int {
	return min(max(int(math.Sqrt(float64(tileL2Bytes/2/bytesPerCell/lane))), lo), tileMaxEdge)
}

// AdaptiveTileDims picks tile edges (ti, tj, tk) for an ni×nj×nk lattice
// filled by the given number of workers, where each lattice cell costs
// bytesPerCell bytes (summed over all lattices the kernel fills — 4 for the
// single linear-gap tensor, 28 for the seven affine-gap tensors). The k
// edge is always the whole axis (a pencil tile); the i and j edges are
// sized to an L2 working-set budget and then halved, never below
// tileMinEdge, until the i×j block grid offers at least 2×workers lanes.
func AdaptiveTileDims(ni, nj, nk, workers, bytesPerCell int) (ti, tj, tk int) {
	if workers <= 0 {
		workers = 1
	}
	if bytesPerCell <= 0 {
		bytesPerCell = 4
	}
	tk = max(nk, 1)
	ti = l2Edge(tk, bytesPerCell, tileMinEdge)
	tj = ti
	for blocksAlong(ni, ti)*blocksAlong(nj, tj) < 2*workers && (ti > tileMinEdge || tj > tileMinEdge) {
		if ti >= tj {
			ti = max(ti/2, tileMinEdge)
		} else {
			tj = max(tj/2, tileMinEdge)
		}
	}
	return ti, tj, tk
}

// tileDims resolves the tile shape for an ni×nj×nk lattice: a planner-
// negotiated Options.TileDims wins outright, an explicit Options.BlockSize
// remains a cubic override (preserving the historical contract and the F3
// block-size sweep), and otherwise AdaptiveTileDims picks a pencil tile.
func (o Options) tileDims(ni, nj, nk, bytesPerCell int) (ti, tj, tk int) {
	if o.TileDims[0] > 0 && o.TileDims[1] > 0 && o.TileDims[2] > 0 {
		return o.TileDims[0], o.TileDims[1], o.TileDims[2]
	}
	if o.BlockSize > 0 {
		return o.BlockSize, o.BlockSize, o.BlockSize
	}
	return AdaptiveTileDims(ni, nj, nk, wavefront.Workers(o.Workers), bytesPerCell)
}

// Plane-sweep tiling. The linear-space Hirschberg kernel re-fills j×k
// planes, so its only parallel axes are j and k: whole-k tiles would leave
// it one column of blocks and serialise the sweep. It keeps a k-cutting
// rule instead. k is capped at plane2DMaxK lanes, j is halved (never below
// plane2DMinEdge) until there are 2×workers j blocks, and then k (down to
// plane2DMinK), then j, are halved until the grid holds plane2DBlocksPerWorker
// blocks per worker — the depth at which the list-scheduled makespan of the
// plane wavefront approaches total/workers (measured with wavefront.Simulate).
const (
	plane2DMaxK            = 128
	plane2DMinK            = 32
	plane2DMinEdge         = 4
	plane2DBlocksPerWorker = 96
)

// tile2D resolves the tile shape for an nj×nk plane sweep; an explicit
// Options.BlockSize is a square override.
func (o Options) tile2D(nj, nk, bytesPerCell int) (tj, tk int) {
	if o.BlockSize > 0 {
		return o.BlockSize, o.BlockSize
	}
	workers := wavefront.Workers(o.Workers)
	tk = min(max(nk, 1), plane2DMaxK)
	tj = l2Edge(tk, bytesPerCell, plane2DMinEdge)
	for blocksAlong(nj, tj) < 2*workers && tj > plane2DMinEdge {
		tj = max(tj/2, plane2DMinEdge)
	}
	for blocksAlong(nj, tj)*blocksAlong(nk, tk) < plane2DBlocksPerWorker*workers {
		switch {
		case tk > plane2DMinK:
			tk = max(tk/2, plane2DMinK)
		case tj > plane2DMinEdge:
			tj /= 2
		default:
			return tj, tk
		}
	}
	return tj, tk
}
