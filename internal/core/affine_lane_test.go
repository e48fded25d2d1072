package core

import (
	"fmt"
	"testing"

	"repro/internal/alignment"
	"repro/internal/wavefront"
)

// TestAffineLaneAsmMatchesGo pins the AVX2 affine lane kernels and the
// pure-Go pass to the guarded per-cell recurrence, cell for cell in all
// seven states: lanes of every length up to 33 cells (all tails around
// the first vector blocks) and around 64 and 128, whole or cut into k
// blocks that start mid-lane, with boxes whose empty A or B axis leaves
// every lane a nil predecessor.
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
				f := newAffineFill(sch)
				if want := haveLaneAsm && laneAsmEnabled; f.vec != want {
					t.Fatalf("vector pass admitted = %v, want %v", f.vec, want)
				}
				for _, p := range lens {
					for _, box := range boxes {
						n, m := box[0], box[1]
						tr := diffTriple(sch, int64(100*p+10*n+m), n, m, p)
						ca, cb, cc, err := prepare(tr, sch)
						if err != nil {
							t.Fatal(err)
						}
						st := newScoreTables(ca, cb, cc, sch)
						want := refAffineFill(ca, cb, cc, sch, alignment.MoveXXX)
						for _, kb := range []int{p + 1, 5, 11, 40} {
							t.Run(fmt.Sprintf("%dx%dx%d/kblock=%d", n, m, p, kb), func(t *testing.T) {
								got := seededGarbage(n, m, p, alignment.MoveXXX)
								for _, si := range wavefront.Partition(n+1, 2) {
									for _, sj := range wavefront.Partition(m+1, 2) {
										for _, sk := range wavefront.Partition(p+1, kb) {
											fillRangeAffine(got, st, &f, si, sj, sk)
										}
									}
								}
								for s := range want {
									wantTensorsEqual(t, got[s], want[s])
								}
							})
						}
						st.release()
					}
				}
			})
		})
	}
}
