//go:build amd64

package core

// AVX2 lane kernels: the packed fill paths hand whole 16- (int16) or
// 8-cell (int32) groups of the unit-stride k lane to hand-written vector
// code when the CPU supports it, and the affine lane pass hands whole
// block rows of interior lanes to its 8-cell int32 row kernel
// (affine_amd64.s). The pure-Go loops in packed.go and affine_lane.go
// remain the portable implementation; they still run the packed kernels'
// tail cells after the vector blocks, the affine boundary lanes and rows
// of lanes shorter than 9 cells, and everything when AVX2 is absent or
// laneAsmEnabled is cleared.

//go:noescape
func cpuidEx(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func laneFill16(a *laneArgs16)

//go:noescape
func laneFill32(a *laneArgs32)

//go:noescape
func affineRow32(a *affineRowArgs, k *affineRowConsts)

// haveLaneAsm reports whether the vector lane kernels may be used: AVX2
// present and the OS saving YMM state across context switches.
var haveLaneAsm = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidEx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidEx(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuidEx(7, 0)
	return b&(1<<5) != 0 // AVX2
}
