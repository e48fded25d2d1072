package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/wavefront"
)

// TestAffineLaneAsmMatchesGo pins the AVX2 row kernel and the pure-Go
// pass to the guarded per-cell recurrence, cell for cell in all seven
// states, with the vector path on and off:
//
//   - every lane length up to 33 cells (all tails around the first
//     vector blocks) and around 64 and 128, whole or cut into k blocks
//     that start mid-lane, with boxes whose empty A or B axis leaves every
//     lane a nil predecessor;
//   - rows: block rows of 1 to 13 lanes, with the i = 0 and j = 0 boundary
//     lanes inside the same block as the kernel's lanes, and rows that
//     start past j = 1;
//   - tiles: the production wavefront (fillAffine) at pinned TileDims that
//     cut k, so the kernel starts at lo > 0, on 1 and 2 workers;
//   - sweep: the forward plane sweep of the linear-space recursion.
func TestAffineLaneAsmMatchesGo(t *testing.T) {
	var lens []int
	for p := 0; p <= 33; p++ {
		lens = append(lens, p)
	}
	lens = append(lens, 63, 64, 65, 127, 128, 129)
	boxes := [][2]int{{0, 2}, {2, 0}, {2, 3}}
	for name, sch := range affineDiffSchemes(t) {
		t.Run(name, func(t *testing.T) {
			withLaneAsm(t, func(t *testing.T) {
				f := newAffineFill(nil, nil, nil, sch)
				f.release()
				if want := haveLaneAsm && laneAsmEnabled; f.vec != want {
					t.Fatalf("vector pass admitted = %v, want %v", f.vec, want)
				}
				// blocked fills one box block by block in wavefront order
				// and compares it with the reference.
				blocked := func(t *testing.T, n, m, p, seed int, ti, tj, tk int) {
					t.Helper()
					tr := diffTriple(sch, int64(seed), n, m, p)
					ca, cb, cc, err := prepare(tr, sch)
					if err != nil {
						t.Fatal(err)
					}
					f := newAffineFill(ca, cb, cc, sch)
					defer f.release()
					want := refAffineFill(ca, cb, cc, sch, alignment.MoveXXX)
					got := seededGarbage(n, m, p, alignment.MoveXXX)
					for _, si := range wavefront.Partition(n+1, ti) {
						for _, sj := range wavefront.Partition(m+1, tj) {
							for _, sk := range wavefront.Partition(p+1, tk) {
								fillRangeAffine(got, &f, si, sj, sk)
							}
						}
					}
					for s := range want {
						wantTensorsEqual(t, got[s], want[s])
					}
				}
				for _, p := range lens {
					for _, box := range boxes {
						n, m := box[0], box[1]
						for _, kb := range []int{p + 1, 5, 11, 40} {
							t.Run(fmt.Sprintf("%dx%dx%d/kblock=%d", n, m, p, kb), func(t *testing.T) {
								blocked(t, n, m, p, 100*p+10*n+m, 2, 2, kb)
							})
						}
					}
				}
				t.Run("rows", func(t *testing.T) {
					for m := 0; m <= 13; m++ {
						for _, p := range []int{8, 9, 17, 40} {
							for _, jb := range []int{m + 1, 4} {
								t.Run(fmt.Sprintf("2x%dx%d/jblock=%d", m, p, jb), func(t *testing.T) {
									blocked(t, 2, m, p, 1000+100*m+p, 3, jb, p+1)
								})
							}
						}
					}
				})
				t.Run("tiles", func(t *testing.T) {
					shapes := [][3]int{{5, 7, 40}, {3, 12, 70}, {4, 4, 27}}
					tiles := [][3]int{{2, 3, 12}, {3, 5, 20}, {1, 13, 9}, {2, 2, 10}}
					for si, shape := range shapes {
						n, m, p := shape[0], shape[1], shape[2]
						tr := diffTriple(sch, int64(5000+si), n, m, p)
						ca, cb, cc, err := prepare(tr, sch)
						if err != nil {
							t.Fatal(err)
						}
						want := refAffineFill(ca, cb, cc, sch, alignment.MoveGGX)
						for _, td := range tiles {
							for _, workers := range []int{1, 2} {
								t.Run(fmt.Sprintf("%dx%dx%d/tile=%v/workers=%d", n, m, p, td, workers), func(t *testing.T) {
									f := newAffineFill(ca, cb, cc, sch)
									defer f.release()
									got := seededGarbage(n, m, p, alignment.MoveGGX)
									opt := Options{Workers: workers, TileDims: td}
									if err := fillAffine(context.Background(), got, &f, opt); err != nil {
										t.Fatal(err)
									}
									for s := range want {
										wantTensorsEqual(t, got[s], want[s])
									}
								})
							}
						}
					}
				})
				t.Run("sweep", func(t *testing.T) {
					for si, shape := range [][3]int{{3, 13, 40}, {2, 5, 9}, {3, 1, 64}} {
						n, m, p := shape[0], shape[1], shape[2]
						tr := diffTriple(sch, int64(6000+si), n, m, p)
						ca, cb, cc, err := prepare(tr, sch)
						if err != nil {
							t.Fatal(err)
						}
						for _, q0 := range []alignment.Move{alignment.MoveXXX, alignment.MoveGGX} {
							want := refAffineFill(ca, cb, cc, sch, q0)
							plane := mat.NewPlane(m+1, p+1)
							for i := 0; i <= n; i++ {
								fwd, err := affineForwardPlanes(context.Background(), ca[:i], cb, cc, sch, q0)
								if err != nil {
									t.Fatal(err)
								}
								for s := 0; s < 7; s++ {
									want[s].PlaneI(i, plane)
									wantPlanesEqual(t, i, fwd[s], plane)
								}
								putPlanes7(&fwd)
							}
						}
					}
				})
			})
		})
	}
}
