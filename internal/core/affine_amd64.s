//go:build amd64

#include "textflag.h"

// AVX2 row kernel of the grouped-open affine lane pass (affine_lane.go):
// the interior lanes of one block row at int32 width, 8 cells per step.
// Per lane it writes the same cells in the same order as the Go pass
// (affineFill.lane): the k = 0 cells of the C-consuming states or the
// single cons cells at lo, the single keep cells at hi-1, the three pair
// walks, and the GGX chain. Every maximum and wrapping add is the Go
// pass's, in the same grouping, so the lattices come out bit-identical.
// When a walk is not a multiple of 8 cells, its last step recomputes the
// 8 cells that end the walk: the inputs are lanes or cells the step does
// not write, so the cells written twice get the same value twice, and no
// tail is left to scalar code.
//
// affineRowArgs layout: cur[7] 0..48 and up[7] 56..104 (mask order A, B,
// AB, C, AC, BC, ABC; lane j0 of rows i and i-1 at cell 0), cb 112, prof
// 120, sub 128, ac 136, lanes 144, stride 152, profStride 160, lo 168,
// hi 176. affineRowConsts layout: go1 0, go2 4, ge2 8, 2·ge2 12, 4·ge2 16,
// ramp 24 ((1..8)·ge2).
//
// Lane j's lanes are base + off with off = (j-j0)·stride: its own at
// cur, (i-1, j) at up, (i, j-1) at cur - stride and (i-1, j-1) at
// up - stride.
//
// Registers held across the row: Y9 4·ge2, Y10 the scan's -1<<30 fill,
// Y11 ramp, Y12 go1, Y13 go2, Y14 ge2, Y15 2·ge2; per lane Y7 sAB+ge2 and
// Y8 sAB (the AB pair's c0 and c1). Locals: 0 off, 8 j-j0, 16 the lane's
// B-vs-C row, 24 pair phase, 32 H = (hi-1)·4, 40 -n·4 for the pair walks
// (n = hi-1-lo), 48 the chain's carried cell max(lo, 1)-1 in bytes, 56
// the chain's last block offset (hi - max(lo, 1) - 8)·4.
//
// While a pair shape runs, R8..R13, SI hold its seven source lanes in
// mask order (A, B, AB, C, AC, BC, ABC), DI the keep lane, DX the cons
// lane and BX the x row; the B shape loads A↔B and AC↔BC swapped and so
// runs the A shape's code.

#define NEGINF $-536870912

// GM: X0 = max(own, max(o0, o1)+go1, max(t0, t1, t2, t3)+go2) at cell
// offset CX of the named lane registers.
#define GM(own, o0, o1, t0, t1, t2, t3) \
	VMOVD (o0)(CX*1), X1; \
	VMOVD (o1)(CX*1), X2; \
	VPMAXSD X2, X1, X1; \
	VPADDD X12, X1, X1; \
	VMOVD (t0)(CX*1), X2; \
	VMOVD (t1)(CX*1), X3; \
	VPMAXSD X3, X2, X2; \
	VMOVD (t2)(CX*1), X3; \
	VPMAXSD X3, X2, X2; \
	VMOVD (t3)(CX*1), X3; \
	VPMAXSD X3, X2, X2; \
	VPADDD X13, X2, X2; \
	VMOVD (own)(CX*1), X0; \
	VPMAXSD X1, X0, X0; \
	VPMAXSD X2, X0, X0

// SRC7(base, off): R8..R13, SI = the seven lanes at base + off, in mask
// order.
#define SRC7(base, off) \
	MOVQ (base+0)(AX), R8; \
	ADDQ off, R8; \
	MOVQ (base+8)(AX), R9; \
	ADDQ off, R9; \
	MOVQ (base+16)(AX), R10; \
	ADDQ off, R10; \
	MOVQ (base+24)(AX), R11; \
	ADDQ off, R11; \
	MOVQ (base+32)(AX), R12; \
	ADDQ off, R12; \
	MOVQ (base+40)(AX), R13; \
	ADDQ off, R13; \
	MOVQ (base+48)(AX), SI; \
	ADDQ off, SI

// func affineRow32(a *affineRowArgs, k *affineRowConsts)
TEXT ·affineRow32(SB), NOSPLIT, $64-16
	MOVQ k+8(FP), DX
	VPBROADCASTD 16(DX), Y9   // 4·ge2
	VPCMPEQD Y10, Y10, Y10
	VPSLLD $30, Y10, Y10      // -1<<30 in every lane
	VMOVDQU 24(DX), Y11       // carry ramp (1..8)·ge2
	VPBROADCASTD 0(DX), Y12   // go1
	VPBROADCASTD 4(DX), Y13   // go2
	VPBROADCASTD 8(DX), Y14   // ge2
	VPBROADCASTD 12(DX), Y15  // 2·ge2
	MOVQ a+0(FP), AX

	MOVQ 176(AX), CX
	DECQ CX
	SHLQ $2, CX
	MOVQ CX, 32(SP)           // H
	MOVQ 168(AX), DX
	SHLQ $2, DX
	SUBQ CX, DX
	MOVQ DX, 40(SP)           // lo·4 - H = -n·4
	MOVQ 168(AX), DX
	MOVQ $1, BX
	CMPQ DX, BX
	CMOVQLT BX, DX            // max(lo, 1)
	MOVQ 176(AX), CX
	SUBQ DX, CX
	SUBQ $8, CX
	SHLQ $2, CX
	MOVQ CX, 56(SP)           // chain: last block offset
	DECQ DX
	SHLQ $2, DX
	MOVQ DX, 48(SP)           // chain: carried cell
	MOVQ $0, 0(SP)
	MOVQ $0, 8(SP)

lane:
	// The lane's pair scores: sAB = sub[cb[j-1]] and the B-vs-C row.
	MOVQ 112(AX), BX
	MOVQ 8(SP), CX
	MOVBQSX (BX)(CX*1), BX
	MOVQ 128(AX), DX
	VPBROADCASTD (DX)(BX*4), Y8
	VPADDD Y14, Y8, Y7
	IMULQ 160(AX), BX
	ADDQ 120(AX), BX
	MOVQ BX, 16(SP)

	// k = 0: no C-consuming state has a predecessor cell.
	MOVQ 168(AX), CX
	TESTQ CX, CX
	JNZ shapeA
	MOVQ 0(SP), DX
	MOVQ 24(AX), DI
	MOVL NEGINF, (DI)(DX*1)   // C
	MOVQ 32(AX), DI
	MOVL NEGINF, (DI)(DX*1)   // AC
	MOVQ 40(AX), DI
	MOVL NEGINF, (DI)(DX*1)   // BC
	MOVQ 48(AX), DI
	MOVL NEGINF, (DI)(DX*1)   // ABC

shapeA:
	// A and AC over the (i-1, j) lanes.
	MOVQ $0, 24(SP)
	MOVQ 0(SP), DX
	SRC7(56, DX)
	MOVQ 0(AX), DI
	ADDQ DX, DI               // keep: A
	MOVQ 32(AX), BX
	ADDQ BX, DX               // cons: AC
	MOVQ 136(AX), BX          // x: ac

pairShape:
	// A: own A, one {AB, AC}, two {B, C, BC, ABC} at hi-1.
	MOVQ 32(SP), CX
	GM(R8, R10, R12, R9, R11, R13, SI)
	VPADDD X14, X0, X0
	VMOVD X0, (DI)(CX*1)
	// AC: own AC, one {A, C}, two {B, AB, BC, ABC} at lo-1, into lo.
	MOVQ 168(AX), CX
	TESTQ CX, CX
	JZ pairWalk
	DECQ CX
	SHLQ $2, CX
	GM(R12, R8, R11, R9, R10, R13, SI)
	VPADDD X14, X0, X0
	VMOVD 4(BX)(CX*1), X1
	VPADDD X1, X0, X0
	VMOVD X0, 4(DX)(CX*1)

pairWalk:
	// keep = max(A, max(AB, AC)+go1, max(B, BC, ABC, C)+go2) + ge2 at t,
	// cons = max(AC, max(A, C)+go1, max(B, BC, ABC, AB)+go2) + ge2 + x
	// at t+1, for t = lo..hi-2. Pointers move to the walk's end.
	MOVQ 32(SP), CX
	ADDQ CX, R8
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	ADDQ CX, R12
	ADDQ CX, R13
	ADDQ CX, SI
	ADDQ CX, DI
	LEAQ 4(DX)(CX*1), DX
	LEAQ 4(BX)(CX*1), BX
	MOVQ 40(SP), CX

pairLoop:
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
	VPADDD Y14, Y4, Y4
	VPADDD (BX)(CX*1), Y4, Y4
	VMOVDQU Y4, (DX)(CX*1)     // cons

	ADDQ $32, CX
	JZ pairDone
	CMPQ CX, $-32
	JLE pairLoop
	MOVQ $-32, CX              // a partial block is left: redo the last 8 cells
	JMP pairLoop

pairDone:
	MOVQ 24(SP), CX
	TESTQ CX, CX
	JNZ shapeAB
	// B and BC over the (i, j-1) lanes, loaded with A↔B and AC↔BC
	// swapped.
	MOVQ $1, 24(SP)
	MOVQ 0(SP), DX
	SUBQ 152(AX), DX
	SRC7(0, DX)
	XCHGQ R8, R9
	XCHGQ R12, R13
	MOVQ 0(SP), CX
	MOVQ 8(AX), DI
	ADDQ CX, DI               // keep: B
	MOVQ 40(AX), DX
	ADDQ CX, DX               // cons: BC
	MOVQ 16(SP), BX           // x: bc
	JMP pairShape

shapeAB:
	// AB and ABC over the (i-1, j-1) lanes.
	MOVQ 0(SP), DX
	SUBQ 152(AX), DX
	SRC7(56, DX)
	MOVQ 0(SP), CX
	MOVQ 16(AX), DI
	ADDQ CX, DI               // keep: AB
	MOVQ 48(AX), DX
	ADDQ CX, DX               // cons: ABC
	// AB: own AB, one {A, B}, two {C, AC, BC, ABC} at hi-1.
	MOVQ 32(SP), CX
	GM(R10, R8, R9, R11, R12, R13, SI)
	VPADDD X7, X0, X0
	VMOVD X0, (DI)(CX*1)
	// ABC: the plain maximum of all seven at lo-1, into lo.
	MOVQ 168(AX), CX
	TESTQ CX, CX
	JZ abWalk
	DECQ CX
	SHLQ $2, CX
	VMOVD (R8)(CX*1), X0
	VMOVD (R9)(CX*1), X1
	VPMAXSD X1, X0, X0
	VMOVD (R10)(CX*1), X1
	VPMAXSD X1, X0, X0
	VMOVD (R11)(CX*1), X1
	VPMAXSD X1, X0, X0
	VMOVD (R12)(CX*1), X1
	VPMAXSD X1, X0, X0
	VMOVD (R13)(CX*1), X1
	VPMAXSD X1, X0, X0
	VMOVD (SI)(CX*1), X1
	VPMAXSD X1, X0, X0
	VPADDD X8, X0, X0
	MOVQ 136(AX), BX
	VMOVD 4(BX)(CX*1), X1     // ac
	VPADDD X1, X0, X0
	MOVQ 16(SP), BX
	VMOVD 4(BX)(CX*1), X1     // bc
	VPADDD X1, X0, X0
	VMOVD X0, 4(DX)(CX*1)

abWalk:
	// keep = max(AB, max(A, B)+go1, max(C, AC, BC, ABC)+go2) + sAB+ge2,
	// cons = max(AB, max(A, B), max(C, AC, BC, ABC)) + sAB + ac + bc.
	MOVQ 32(SP), CX
	ADDQ CX, R8
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	ADDQ CX, R12
	ADDQ CX, R13
	ADDQ CX, SI
	ADDQ CX, DI
	LEAQ 4(DX)(CX*1), DX
	MOVQ 136(AX), BX
	LEAQ 4(BX)(CX*1), BX      // x: ac
	MOVQ 16(SP), AX
	LEAQ 4(AX)(CX*1), AX      // y: bc
	MOVQ 40(SP), CX

abLoop:
	VMOVDQU (R8)(CX*1), Y0
	VPMAXSD (R9)(CX*1), Y0, Y0  // m1 = max(A, B)
	VMOVDQU (R11)(CX*1), Y1
	VPMAXSD (R12)(CX*1), Y1, Y1
	VPMAXSD (R13)(CX*1), Y1, Y1
	VPMAXSD (SI)(CX*1), Y1, Y1  // m2 = max(C, AC, BC, ABC)
	VMOVDQU (R10)(CX*1), Y2     // AB

	VPMAXSD Y0, Y2, Y3
	VPMAXSD Y1, Y3, Y3
	VPADDD Y8, Y3, Y3
	VPADDD (BX)(CX*1), Y3, Y3
	VPADDD (AX)(CX*1), Y3, Y3
	VMOVDQU Y3, (DX)(CX*1)      // cons

	VPADDD Y12, Y0, Y0
	VPADDD Y13, Y1, Y1
	VPMAXSD Y1, Y0, Y0
	VPMAXSD Y2, Y0, Y0
	VPADDD Y7, Y0, Y0
	VMOVDQU Y0, (DI)(CX*1)      // keep

	ADDQ $32, CX
	JZ abDone
	CMPQ CX, $-32
	JLE abLoop
	MOVQ $-32, CX              // a partial block is left: redo the last 8 cells
	JMP abLoop

abDone:
	MOVQ a+0(FP), AX

	// GGX: own C, one {AC, BC}, two {A, B, AB, ABC}, all in this lane at
	// k-1. Per 8-cell block w[k] = max(max(one)+go1, max(two)+go2) + ge2
	// is plain vertical work; the chain out[k] = max(out[k-1]+ge2, w[k])
	// is then a max-plus prefix scan, as in laneFill32: shift by 1, 2 and
	// 4 lanes (shifting in -1<<30), add the shift times ge2, take the
	// maximum, and fold in the carried cell through the ramp. A partial
	// last block restarts at cell hi-8: its carried cell is already final,
	// so the cells it redoes come out as before.
	MOVQ 0(SP), DX
	ADDQ 48(SP), DX
	MOVQ 24(AX), DI
	ADDQ DX, DI               // C at the carried cell
	MOVQ 32(AX), R8
	ADDQ DX, R8               // AC
	MOVQ 40(AX), R9
	ADDQ DX, R9               // BC
	MOVQ 0(AX), R10
	ADDQ DX, R10              // A
	MOVQ 8(AX), R11
	ADDQ DX, R11              // B
	MOVQ 16(AX), R12
	ADDQ DX, R12              // AB
	MOVQ 48(AX), R13
	ADDQ DX, R13              // ABC
	MOVQ 56(SP), CX
	XORQ BX, BX

chainLoop:
	VMOVDQU (R8)(BX*1), Y0
	VPMAXSD (R9)(BX*1), Y0, Y0
	VPADDD Y12, Y0, Y0           // max(one)+go1
	VMOVDQU (R10)(BX*1), Y1
	VPMAXSD (R11)(BX*1), Y1, Y1
	VPMAXSD (R12)(BX*1), Y1, Y1
	VPMAXSD (R13)(BX*1), Y1, Y1
	VPADDD Y13, Y1, Y1           // max(two)+go2
	VPMAXSD Y1, Y0, Y0
	VPADDD Y14, Y0, Y0           // w

	VPERM2I128 $0x20, Y0, Y10, Y1 // [fill.lo, w.lo]
	VPALIGNR $12, Y1, Y0, Y2      // one lane
	VPADDD Y14, Y2, Y2
	VPMAXSD Y2, Y0, Y0
	VPERM2I128 $0x20, Y0, Y10, Y1
	VPALIGNR $8, Y1, Y0, Y2       // two lanes
	VPADDD Y15, Y2, Y2
	VPMAXSD Y2, Y0, Y0
	VPERM2I128 $0x20, Y0, Y10, Y1 // four lanes is a half swap
	VPADDD Y9, Y1, Y1
	VPMAXSD Y1, Y0, Y0

	VPBROADCASTD (DI)(BX*1), Y1   // the carried cell
	VPADDD Y11, Y1, Y1
	VPMAXSD Y1, Y0, Y0
	VMOVDQU Y0, 4(DI)(BX*1)

	CMPQ BX, CX
	JEQ chainDone
	ADDQ $32, BX
	CMPQ BX, CX
	JLE chainLoop
	MOVQ CX, BX                  // a partial block is left: restart at hi-8
	JMP chainLoop

chainDone:
	MOVQ 152(AX), DX
	ADDQ DX, 0(SP)
	MOVQ 8(SP), DX
	INCQ DX
	MOVQ DX, 8(SP)
	CMPQ DX, 144(AX)
	JLT lane
	VZEROUPPER
	RET
