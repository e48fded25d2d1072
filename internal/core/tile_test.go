package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/scoring"
)

// TestAdaptiveTileDimsLongK pins the pencil rule: every adaptive tile spans
// the whole k axis, and the cross-section stays at or above tileMinEdge
// wherever the lattice is that wide.
func TestAdaptiveTileDimsLongK(t *testing.T) {
	for _, c := range [][3]int{
		{512, 512, 512}, {301, 301, 301}, {97, 97, 97}, {65, 67, 66},
		{400, 30, 700}, {30, 400, 17}, {18, 16, 1000}, {1000, 1000, 2},
	} {
		for _, w := range []int{1, 2, 4, 8, 16} {
			for _, bpc := range []int{2, 4, 28} {
				ti, tj, tk := AdaptiveTileDims(c[0], c[1], c[2], w, bpc)
				if tk != c[2] {
					t.Fatalf("dims %v workers=%d bpc=%d: tk = %d, want the whole axis %d", c, w, bpc, tk, c[2])
				}
				if ti < min(tileMinEdge, c[0]) || tj < min(tileMinEdge, c[1]) {
					t.Fatalf("dims %v workers=%d bpc=%d: cross-section %dx%d below the %d floor",
						c, w, bpc, ti, tj, tileMinEdge)
				}
				if ti > tileMaxEdge || tj > tileMaxEdge {
					t.Fatalf("dims %v workers=%d bpc=%d: cross-section %dx%d above %d", c, w, bpc, ti, tj, tileMaxEdge)
				}
			}
		}
	}
}

// TestTile2DCutsK pins the plane-sweep tiles: the Hirschberg sweep's only
// parallel axes are j and k, so its tiles keep cutting k (capped at
// plane2DMaxK, deepened to plane2DBlocksPerWorker blocks per worker) where
// the 3D fills take whole-k pencils.
func TestTile2DCutsK(t *testing.T) {
	for _, c := range []struct {
		nj, nk, workers, bpc int
		tj, tk               int
	}{
		{512, 512, 1, 8, 11, 128},
		{512, 512, 4, 8, 11, 32},
		{512, 512, 16, 8, 5, 32},
		{301, 301, 2, 8, 11, 32},
		{97, 97, 1, 8, 3, 32},
		{97, 97, 2, 8, 3, 32},
		{500, 20, 2, 8, 3, 20},
		{1, 1, 1, 8, 4, 1},
	} {
		tj, tk := Options{Workers: c.workers}.tile2D(c.nj, c.nk, c.bpc)
		if tj != c.tj || tk != c.tk {
			t.Errorf("tile2D(%d, %d) workers=%d: %dx%d, want %dx%d", c.nj, c.nk, c.workers, tj, tk, c.tj, c.tk)
		}
		if c.nk > plane2DMinK && tk >= c.nk {
			t.Errorf("tile2D(%d, %d) workers=%d: tk %d does not cut k", c.nj, c.nk, c.workers, tk)
		}
	}
}

func TestAdaptiveTileDimsShortK(t *testing.T) {
	_, _, tk := AdaptiveTileDims(300, 300, 20, 2, 4)
	if tk != 20 {
		t.Fatalf("tk = %d, want the full short axis 20", tk)
	}
}

func TestAdaptiveTileDimsAffineSmaller(t *testing.T) {
	li, lj, _ := AdaptiveTileDims(512, 512, 512, 1, 4)
	ai, aj, _ := AdaptiveTileDims(512, 512, 512, 1, 28)
	if ai*aj > li*lj {
		t.Fatalf("affine cross-section %dx%d exceeds linear %dx%d despite 7x cell cost",
			ai, aj, li, lj)
	}
}

func TestAdaptiveTileDimsFeedsWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8, 16} {
		ti, tj, _ := AdaptiveTileDims(400, 400, 400, w, 4)
		lanes := blocksAlong(400, ti) * blocksAlong(400, tj)
		if lanes < 2*w && (ti > tileMinEdge || tj > tileMinEdge) {
			t.Fatalf("workers=%d: %d i×j lanes from %dx%d tiles, want >= %d", w, lanes, ti, tj, 2*w)
		}
	}
}

func TestAdaptiveTileDimsDegenerate(t *testing.T) {
	for _, c := range [][3]int{{1, 1, 1}, {0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {2, 3, 1}} {
		ti, tj, tk := AdaptiveTileDims(c[0], c[1], c[2], 4, 4)
		if ti < 1 || tj < 1 || tk < 1 {
			t.Fatalf("dims %v: non-positive tile %dx%dx%d", c, ti, tj, tk)
		}
	}
	// Bad inputs must not panic and must still yield usable tiles.
	ti, tj, tk := AdaptiveTileDims(100, 100, 100, 0, 0)
	if ti < 1 || tj < 1 || tk < 1 {
		t.Fatalf("defaulted inputs produced tile %dx%dx%d", ti, tj, tk)
	}
}

func TestOptionsTileDimsCubicOverride(t *testing.T) {
	o := Options{BlockSize: 24}
	ti, tj, tk := o.tileDims(500, 500, 500, 4)
	if ti != 24 || tj != 24 || tk != 24 {
		t.Fatalf("BlockSize override gave %dx%dx%d, want cubic 24", ti, tj, tk)
	}
	tj, tk = o.tile2D(500, 500, 4)
	if tj != 24 || tk != 24 {
		t.Fatalf("BlockSize 2D override gave %dx%d, want 24x24", tj, tk)
	}
}

func TestOptionsTileDimsAdaptiveDefault(t *testing.T) {
	o := Options{Workers: 4}
	ti, tj, tk := o.tileDims(512, 512, 512, 4)
	ai, aj, ak := AdaptiveTileDims(512, 512, 512, 4, 4)
	if ti != ai || tj != aj || tk != ak {
		t.Fatalf("tileDims = %dx%dx%d, want adaptive %dx%dx%d", ti, tj, tk, ai, aj, ak)
	}
}

// TestPencilTilesOddLanes runs both blocked 3D fills under their default
// (pencil) tiles on lanes of 1, 15, 17, 33 and 301 cells and on sequences
// of those lengths, none of them a multiple of the 16- or 8-cell vector
// block, so every lane ends in a scalar tail. Scores and rows must equal
// the sequential kernels' at every worker count.
func TestPencilTilesOddLanes(t *testing.T) {
	aff, err := scoring.DNADefault().WithGaps(-4, -1)
	if err != nil {
		t.Fatal(err)
	}
	lin := scoring.DNADefault()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(16))
	for _, p := range []int{0, 1, 14, 15, 16, 17, 32, 33, 300, 301} {
		tr := randomTriple(rng, 40, 36, p)
		for _, width := range []int{0, 16} {
			ref, err := AlignParallel(ctx, tr, lin, Options{Workers: 1, CellWidth: width})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				got, err := AlignParallel(ctx, tr, lin, Options{Workers: w, CellWidth: width})
				if err != nil {
					t.Fatal(err)
				}
				if got.Score != ref.Score || !sameMoves(got.Moves, ref.Moves) {
					t.Fatalf("p=%d width=%d workers=%d: parallel %d differs from full %d", p, width, w, got.Score, ref.Score)
				}
			}
		}
		ref, err := AlignAffineParallel(ctx, tr, aff, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, runtime.NumCPU()} {
			got, err := AlignAffineParallel(ctx, tr, aff, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.Score != ref.Score || !sameMoves(got.Moves, ref.Moves) {
				t.Fatalf("p=%d workers=%d: affine parallel %d differs from affine %d", p, w, got.Score, ref.Score)
			}
		}
	}
}
