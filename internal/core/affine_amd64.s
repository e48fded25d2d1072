//go:build amd64

#include "textflag.h"

// AVX2 kernels of the grouped-open affine lane pass (affine_lane.go): the
// interiors of affineFill.pair and affineFill.chainC at int32 width, 8
// cells per step, for walks of n ≥ 8 cells. The pair kernels compute the
// same int32 maxima and wrapping adds as the Go loops, in the same
// grouping, so the lattices they write are bit-identical; the Go side
// keeps the single boundary cells. When n is not a multiple of 8, the
// last step recomputes the 8 cells that end the walk: its inputs are
// lanes the kernel does not write, so the cells it writes twice get the
// same value twice, and no tail is left to scalar code.
//
// affinePairArgs layout: src[7] at 0..48 (lanes in mask order A, B, AB,
// C, AC, BC, ABC, each at the first cell read), keep 56, cons 64, x 72,
// y 80, n 88, go1 96, go2 100, c0 104, c1 108. The pair kernels move all
// pointers to the end of the walk and count a negative byte offset up to
// zero, which leaves one general register for every pointer.

// func affinePairA32(a *affinePairArgs)
//
// keep = max(A, max(AB, AC)+go1, max(B, BC, ABC, C)+go2) + c0
// cons = max(AC, max(A, C)+go1, max(B, BC, ABC, AB)+go2) + c1 + x
//
// (the B shape is the A shape over lanes with A↔B and AC↔BC swapped).
TEXT ·affinePairA32(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	VPBROADCASTD 96(AX), Y12  // go1
	VPBROADCASTD 100(AX), Y13 // go2
	VPBROADCASTD 104(AX), Y14 // c0
	VPBROADCASTD 108(AX), Y15 // c1
	MOVQ 88(AX), CX
	SHLQ $2, CX               // n·4 bytes
	MOVQ 0(AX), R8            // A
	ADDQ CX, R8
	MOVQ 8(AX), R9            // B
	ADDQ CX, R9
	MOVQ 16(AX), R10          // AB
	ADDQ CX, R10
	MOVQ 24(AX), R11          // C
	ADDQ CX, R11
	MOVQ 32(AX), R12          // AC
	ADDQ CX, R12
	MOVQ 40(AX), R13          // BC
	ADDQ CX, R13
	MOVQ 48(AX), SI           // ABC
	ADDQ CX, SI
	MOVQ 56(AX), DI           // keep
	ADDQ CX, DI
	MOVQ 64(AX), DX           // cons
	ADDQ CX, DX
	MOVQ 72(AX), BX           // x
	ADDQ CX, BX
	NEGQ CX

pairA:
	VMOVDQU (R9)(CX*1), Y0
	VPMAXSD (R13)(CX*1), Y0, Y0
	VPMAXSD (SI)(CX*1), Y0, Y0 // m = max(B, BC, ABC)
	VMOVDQU (R8)(CX*1), Y1     // A
	VMOVDQU (R10)(CX*1), Y2    // AB
	VMOVDQU (R11)(CX*1), Y3    // C
	VMOVDQU (R12)(CX*1), Y4    // AC

	VPMAXSD Y4, Y2, Y5         // max(AB, AC)
	VPADDD Y12, Y5, Y5
	VPMAXSD Y3, Y0, Y6         // max(m, C)
	VPADDD Y13, Y6, Y6
	VPMAXSD Y5, Y1, Y5
	VPMAXSD Y6, Y5, Y5
	VPADDD Y14, Y5, Y5
	VMOVDQU Y5, (DI)(CX*1)     // keep

	VPMAXSD Y3, Y1, Y1         // max(A, C)
	VPADDD Y12, Y1, Y1
	VPMAXSD Y2, Y0, Y0         // max(m, AB)
	VPADDD Y13, Y0, Y0
	VPMAXSD Y1, Y4, Y4
	VPMAXSD Y0, Y4, Y4
	VPADDD Y15, Y4, Y4
	VPADDD (BX)(CX*1), Y4, Y4
	VMOVDQU Y4, (DX)(CX*1)     // cons

	ADDQ $32, CX
	JZ pairADone
	CMPQ CX, $-32
	JLE pairA
	MOVQ $-32, CX              // a partial block is left: redo the last 8 cells
	JMP pairA

pairADone:
	VZEROUPPER
	RET

// func affinePairAB32(a *affinePairArgs)
//
// keep = max(AB, max(A, B)+go1, max(C, AC, BC, ABC)+go2) + c0
// cons = max(AB, max(A, B), max(C, AC, BC, ABC)) + c1 + x + y
TEXT ·affinePairAB32(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	VPBROADCASTD 96(AX), Y12  // go1
	VPBROADCASTD 100(AX), Y13 // go2
	VPBROADCASTD 104(AX), Y14 // c0
	VPBROADCASTD 108(AX), Y15 // c1
	MOVQ 88(AX), CX
	SHLQ $2, CX               // n·4 bytes
	MOVQ 0(AX), R8            // A
	ADDQ CX, R8
	MOVQ 8(AX), R9            // B
	ADDQ CX, R9
	MOVQ 16(AX), R10          // AB
	ADDQ CX, R10
	MOVQ 24(AX), R11          // C
	ADDQ CX, R11
	MOVQ 32(AX), R12          // AC
	ADDQ CX, R12
	MOVQ 40(AX), R13          // BC
	ADDQ CX, R13
	MOVQ 48(AX), SI           // ABC
	ADDQ CX, SI
	MOVQ 56(AX), DI           // keep
	ADDQ CX, DI
	MOVQ 64(AX), DX           // cons
	ADDQ CX, DX
	MOVQ 72(AX), BX           // x
	ADDQ CX, BX
	MOVQ 80(AX), AX           // y
	ADDQ CX, AX
	NEGQ CX

pairAB:
	VMOVDQU (R8)(CX*1), Y0
	VPMAXSD (R9)(CX*1), Y0, Y0  // m1 = max(A, B)
	VMOVDQU (R11)(CX*1), Y1
	VPMAXSD (R12)(CX*1), Y1, Y1
	VPMAXSD (R13)(CX*1), Y1, Y1
	VPMAXSD (SI)(CX*1), Y1, Y1  // m2 = max(C, AC, BC, ABC)
	VMOVDQU (R10)(CX*1), Y2     // AB

	VPMAXSD Y0, Y2, Y3
	VPMAXSD Y1, Y3, Y3
	VPADDD Y15, Y3, Y3
	VPADDD (BX)(CX*1), Y3, Y3
	VPADDD (AX)(CX*1), Y3, Y3
	VMOVDQU Y3, (DX)(CX*1)      // cons

	VPADDD Y12, Y0, Y0
	VPADDD Y13, Y1, Y1
	VPMAXSD Y1, Y0, Y0
	VPMAXSD Y2, Y0, Y0
	VPADDD Y14, Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)      // keep

	ADDQ $32, CX
	JZ pairABDone
	CMPQ CX, $-32
	JLE pairAB
	MOVQ $-32, CX              // a partial block is left: redo the last 8 cells
	JMP pairAB

pairABDone:
	VZEROUPPER
	RET

// func affineChainC32(a *affineChainArgs, k *affineChainConsts)
//
// affineChainArgs layout: out 0 and src[6] 8..48 (GGX and its one and two
// groups, all at the carried cell lo-1), n 56. affineChainConsts layout:
// go1 0, go2 4, ge2 8, 2·ge2 12, 4·ge2 16, ramp 24 ((1..8)·ge2). The
// kernel writes out at element offsets 1..n.
//
// Per 8-cell block it first forms w[k] = max(max(one)+go1, max(two)+go2)
// + ge2 from the completed cells at k-1, which is plain vertical work.
// The chain out[k] = max(out[k-1], w[k]-ge2) + ge2 = max(out[k-1]+ge2,
// w[k]) is then a max-plus prefix scan, as in laneFill32: shift by 1, 2
// and 4 lanes (shifting in -1<<30), add the shift times ge2, take the
// maximum, and fold in the carried cell through the ramp. A partial last
// block restarts at cell n-8: its carried cell is already final, so the
// cells it redoes come out as before.
TEXT ·affineChainC32(SB), NOSPLIT, $0-16
	MOVQ a+0(FP), AX
	MOVQ k+8(FP), DX
	MOVQ 0(AX), DI            // out
	MOVQ 8(AX), R8            // one[0]
	MOVQ 16(AX), R9           // one[1]
	MOVQ 24(AX), R10          // two[0]
	MOVQ 32(AX), R11          // two[1]
	MOVQ 40(AX), R12          // two[2]
	MOVQ 48(AX), R13          // two[3]
	MOVQ 56(AX), CX
	SUBQ $8, CX
	SHLQ $2, CX               // byte offset of the last block
	VPCMPEQD Y0, Y0, Y0
	VPSLLD $30, Y0, Y0        // Y0 = -1<<30 in every lane
	VMOVDQU 24(DX), Y1        // carry ramp (1..8)·ge2
	VPBROADCASTD 0(DX), Y2    // go1
	VPBROADCASTD 4(DX), Y3    // go2
	VPBROADCASTD 8(DX), Y4    // ge2
	VPBROADCASTD 12(DX), Y5   // 2·ge2
	VPBROADCASTD 16(DX), Y6   // 4·ge2
	XORQ BX, BX               // byte offset of the carried cell

chain8:
	VMOVDQU (R8)(BX*1), Y7
	VPMAXSD (R9)(BX*1), Y7, Y7
	VPADDD Y2, Y7, Y7           // max(one)+go1
	VMOVDQU (R10)(BX*1), Y8
	VPMAXSD (R11)(BX*1), Y8, Y8
	VPMAXSD (R12)(BX*1), Y8, Y8
	VPMAXSD (R13)(BX*1), Y8, Y8
	VPADDD Y3, Y8, Y8           // max(two)+go2
	VPMAXSD Y8, Y7, Y7
	VPADDD Y4, Y7, Y7           // w

	VPERM2I128 $0x20, Y7, Y0, Y8 // [fill.lo, w.lo]
	VPALIGNR $12, Y8, Y7, Y9     // one lane
	VPADDD Y4, Y9, Y9
	VPMAXSD Y9, Y7, Y7
	VPERM2I128 $0x20, Y7, Y0, Y8
	VPALIGNR $8, Y8, Y7, Y9      // two lanes
	VPADDD Y5, Y9, Y9
	VPMAXSD Y9, Y7, Y7
	VPERM2I128 $0x20, Y7, Y0, Y8 // four lanes is a half swap
	VPADDD Y6, Y8, Y8
	VPMAXSD Y8, Y7, Y7

	VPBROADCASTD (DI)(BX*1), Y8  // the carried cell
	VPADDD Y1, Y8, Y8
	VPMAXSD Y8, Y7, Y7
	VMOVDQU Y7, 4(DI)(BX*1)

	CMPQ BX, CX
	JEQ chainDone
	ADDQ $32, BX
	CMPQ BX, CX
	JLE chain8
	MOVQ CX, BX                  // a partial block is left: restart at n-8
	JMP chain8

chainDone:
	VZEROUPPER
	RET
