package core

import (
	"fmt"
	"unsafe"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
)

// The grouped-open affine lane pass: the one interior every affine forward
// fill runs — the sequential and blocked-wavefront lattice fills and the
// forward plane sweep of the linear-space recursion.
//
// A transition q→s charges openCount[q][s]·GapOpen, and for a fixed
// successor mask s the seven predecessor states fall into three fixed
// groups by that count: s itself pays nothing, two states pay one open and
// four pay two (for XXX no pair is one-sided, so all seven are free). The
// 7×7 transition therefore collapses, per state, to
//
//	max(own, max(one)+go, max(two)+2·go) + base
//
// — six maxima and two adds with no open-table reads. The pass fills an
// (i, j) k-lane in four walks that carry no bounds checks. Six states read
// only completed lanes, and they pair up by the lane they read: XGG and XGX
// read (i-1, j), GXG and GXX read (i, j-1), XXG and XXX read (i-1, j-1),
// the first of each pair at k and the second at k-1. Each pair is one
// independent loop that loads every predecessor cell once for both states.
// GGX reads its own lane at k-1: the best entry from the other six states
// is again independent per cell, and only the one add and one max of its
// own extension form a serial chain, as in the linear kernel's packed GGX
// chain.
//
// Boundary lanes run the same pass. A predecessor lane that lies outside
// the box (the i = 0 plane has no (i-1) lanes, a j = 0 row no (j-1) lanes)
// is passed as nil and stands for an all-NegInf lane: every state reading
// it has no predecessor cell, and the pass writes NegInf there directly
// rather than adding a column score to the sentinel. With the k = 0 cell
// of the four C-consuming states handled the same way, the pass writes
// every cell of every state, so no lattice needs a NegInf pre-fill; the
// callers seed only the origin cell (seedAffineOrigin).
//
// Every other predecessor cell lies inside the box and so holds at least
// one reachable state: reachable scores sit far above NegInf/2 and NegInf
// plus two opens far below it, so joining unreachable states into the
// maxima unconditionally changes no value, and the lattices stay
// bit-identical to the guarded per-cell recurrence (refAffineFill in the
// tests).
//
// On AVX2 hosts the pair loops and the GGX chain run 8 cells per step in
// affine_amd64.s whenever a walk has 8 cells or more. The pair kernels
// are the Go loops over vectors. The chain becomes a max-plus prefix
// scan, which regroups the serial max(v, ·) + ge2 steps by distributing
// the add over the maximum; that is exact for integers that do not wrap,
// and with the gap costs bounded by affineVecSafe every candidate stays
// far inside int32, so the vector pass writes the same lattices bit for
// bit.

// affineLanes holds one (i, j) k-lane of each of the seven state lattices,
// indexed by column mask minus one.
type affineLanes [7][]mat.Score

// affineGroup partitions the predecessor states of one successor mask by
// the opens the transition charges. Entries are lattice indices
// (mask - 1); opens holds the open counts of the one and two groups.
type affineGroup struct {
	own   int
	one   [2]int
	two   [4]int
	opens [2]int8
}

// affineGroups is indexed by successor mask; it is built in affine.go's
// init, after openCount.
var affineGroups [8]affineGroup

// newAffineGroup derives mask s's grouping from openCount and panics if
// the count structure the pass relies on does not hold.
func newAffineGroup(s alignment.Move) affineGroup {
	g := affineGroup{own: int(s) - 1}
	var rest []int
	for c := int8(0); c <= 2; c++ {
		for q := alignment.Move(1); q <= 7; q++ {
			if q != s && openCount[q][s] == c {
				rest = append(rest, int(q)-1)
			}
		}
	}
	ok := openCount[s][s] == 0 && len(rest) == 6
	if ok {
		copy(g.one[:], rest[:2])
		copy(g.two[:], rest[2:])
		g.opens = [2]int8{openCount[rest[0]+1][s], openCount[rest[2]+1][s]}
		for _, q := range g.one {
			ok = ok && openCount[q+1][s] == g.opens[0]
		}
		for _, q := range g.two {
			ok = ok && openCount[q+1][s] == g.opens[1]
		}
	}
	if !ok {
		panic(fmt.Sprintf("core: open counts into mask %s do not form own/one/two groups", s))
	}
	return g
}

// Column masks as lattice-state numbers for the pass, named by the
// sequences the column consumes (stA is XGG, stBC is GXX, and so on).
const (
	stA   = int(alignment.ConsumeA)
	stB   = int(alignment.ConsumeB)
	stAB  = stA | stB
	stC   = int(alignment.ConsumeC)
	stAC  = stA | stC
	stBC  = stB | stC
	stABC = stA | stB | stC
)

// affineFill holds one scheme's constants for the lane pass.
type affineFill struct {
	go1, go2 [8]mat.Score // open charge of the one and two groups, per successor mask
	ge2      mat.Score    // two gap extends: a one-consumer column's base score
	vec      bool         // run the AVX2 kernels
	chain    affineChainConsts
}

// newAffineFill derives the pass constants from sch. The vector kernels
// are admitted when the host has them, laneAsmEnabled is set and the gap
// costs pass affineVecSafe; the decision holds for the fill's lifetime.
func newAffineFill(sch *scoring.Scheme) affineFill {
	f := affineFill{ge2: 2 * sch.GapExtend()}
	for s := 1; s < 8; s++ {
		f.go1[s] = mat.Score(affineGroups[s].opens[0]) * sch.GapOpen()
		f.go2[s] = mat.Score(affineGroups[s].opens[1]) * sch.GapOpen()
	}
	f.vec = haveLaneAsm && laneAsmEnabled && affineVecSafe(sch)
	c := &f.chain
	c.go1, c.go2 = f.go1[stC], f.go2[stC]
	c.ge2, c.ge2x2, c.ge2x4 = f.ge2, 2*f.ge2, 4*f.ge2
	for i := range c.ramp {
		c.ramp[i] = mat.Score(i+1) * f.ge2
	}
	return f
}

// affineVecSafe reports whether sch's gap costs keep the chain scan exact.
// The lattices hold NegInf or scores above NegInf/2, so a scan candidate
// is at least NegInf + 2·GapOpen + 8·ge2 and the scan's -1<<30 fill lanes
// at most -1<<30 + 4·ge2. With both costs within 1<<24 neither sum wraps
// and no fill lane can exceed a cell's own candidate.
func affineVecSafe(sch *scoring.Scheme) bool {
	const limit = 1 << 24
	return sch.GapOpen() >= -limit && sch.GapExtend() >= -limit
}

// affinePairArgs is the argument block of affinePairA32 and
// affinePairAB32; affineChainArgs and affineChainConsts are those of
// affineChainC32. The layouts are part of the assembly's contract and
// pinned by the assertions below.
type affinePairArgs struct {
	src              [7]unsafe.Pointer // lanes by mask-1, at the first cell read
	keep, cons, x, y unsafe.Pointer    // y only for the AB shape
	n                int64             // cells, at least 8
	go1, go2, c0, c1 mat.Score
}

type affineChainArgs struct {
	out unsafe.Pointer    // GGX at the carried cell
	src [6]unsafe.Pointer // GGX's one and two groups at the carried cell
	n   int64             // cells, at least 8
}

type affineChainConsts struct {
	go1, go2          mat.Score
	ge2, ge2x2, ge2x4 mat.Score
	_                 int32
	ramp              [8]mat.Score // (1..8)·ge2
}

const (
	affOffPairN     = unsafe.Offsetof(affinePairArgs{}.n)
	affOffPairGo1   = unsafe.Offsetof(affinePairArgs{}.go1)
	affOffChainN    = unsafe.Offsetof(affineChainArgs{}.n)
	affOffChainGE2  = unsafe.Offsetof(affineChainConsts{}.ge2)
	affOffChainRamp = unsafe.Offsetof(affineChainConsts{}.ramp)
)

var (
	_ [affOffPairN - 88]byte
	_ [88 - affOffPairN]byte
	_ [affOffPairGo1 - 96]byte
	_ [96 - affOffPairGo1]byte
	_ [affOffChainN - 56]byte
	_ [56 - affOffChainN]byte
	_ [affOffChainGE2 - 8]byte
	_ [8 - affOffChainGE2]byte
	_ [affOffChainRamp - 24]byte
	_ [24 - affOffChainRamp]byte
)

// seedAffineOrigin writes the origin cell of all seven state lattices:
// score 0 in state q0, the mask of the column before the box, and NegInf
// in every other state.
func seedAffineOrigin(d *[7]*mat.Tensor3, q0 alignment.Move) {
	for s := range d {
		d[s].Set(0, 0, 0, mat.NegInf)
	}
	d[q0-1].Set(0, 0, 0, 0)
}

// lane fills cells lo..hi-1 of the (i, j) k-lane of all seven states. cur
// holds the lanes being filled; l10, l01 and l11 are the completed lanes
// at (i-1, j), (i, j-1) and (i-1, j-1), nil where that lane lies outside
// the box. sAB is the A-vs-B pair score of the lane and acRow[k], bcRow[k]
// the pair scores against cc[k-1]; a state reads them only when its
// predecessor lane exists, so boundary lanes may pass zero values. When
// lo > 0, cell lo-1 of every cur lane must be complete.
func (f *affineFill) lane(cur, l10, l01, l11 *affineLanes, sAB mat.Score, acRow, bcRow []mat.Score, lo, hi int) {
	if lo >= hi {
		return
	}
	if lo == 0 {
		// k = 0: no C-consuming state has a predecessor cell.
		cur[stC-1][0] = mat.NegInf
		cur[stAC-1][0] = mat.NegInf
		cur[stBC-1][0] = mat.NegInf
		cur[stABC-1][0] = mat.NegInf
	}
	f.pair(cur, stA, l10, lo, hi, f.ge2, f.ge2, acRow, nil)
	f.pair(cur, stB, l01, lo, hi, f.ge2, f.ge2, bcRow, nil)
	f.pair(cur, stAB, l11, lo, hi, sAB+f.ge2, sAB, acRow, bcRow)
	// GGX goes last: it reads the other six states of this lane.
	if lo == 0 {
		lo = 1
	}
	if lo < hi {
		f.chainC(cur, lo, hi)
	}
}

// pair fills state s ∈ {XGG, GXG, XXG}, whose predecessors sit in src at k,
// and its C-consuming partner s|C, whose predecessors sit in src at k-1,
// in one walk over src: cell t of src feeds s at t and s|C at t+1, so each
// predecessor cell is loaded once for both states. The base scores are c0
// for s and c1 + x[k] (+ y[k] when y is non-nil) for s|C. The two cells
// only one state reads (s|C at lo, s at hi-1) are filled singly; the
// C-consuming cell at k = 0 is the caller's. A nil src writes NegInf.
func (f *affineFill) pair(cur *affineLanes, s int, src *affineLanes, lo, hi int, c0, c1 mat.Score, x, y []mat.Score) {
	sc := s | stC
	if src == nil {
		fillNegInf(cur[s-1][lo:hi])
		fillNegInf(cur[sc-1][max(lo, 1):hi])
		return
	}
	if lo > 0 {
		b := c1 + x[lo]
		if y != nil {
			b += y[lo]
		}
		cur[sc-1][lo] = f.groupMax(src, sc, lo-1) + b
	}
	cur[s-1][hi-1] = f.groupMax(src, s, hi-1) + c0
	n := hi - 1 - lo
	if n <= 0 {
		return
	}
	go1, go2 := f.go1[s], f.go2[s]
	// The A-shaped loops are written for s = A; B runs them over lanes
	// with A↔B and AC↔BC swapped.
	iA, iB, iAC, iBC := stA-1, stB-1, stAC-1, stBC-1
	if s == stB {
		iA, iB, iAC, iBC = iB, iA, iBC, iAC
	}
	keep := cur[s-1][lo:][:n]
	cons := cur[sc-1][lo+1:][:n]
	vA, vB := src[iA][lo:][:n], src[iB][lo:][:n]
	vAB, vC := src[stAB-1][lo:][:n], src[stC-1][lo:][:n]
	vAC, vBC := src[iAC][lo:][:n], src[iBC][lo:][:n]
	vABC := src[stABC-1][lo:][:n]
	x = x[lo+1:][:n]
	if s == stAB {
		y = y[lo+1:][:n]
	}
	if f.vec && n >= 8 {
		var a affinePairArgs
		a.src[0], a.src[1] = unsafe.Pointer(&vA[0]), unsafe.Pointer(&vB[0])
		a.src[2], a.src[3] = unsafe.Pointer(&vAB[0]), unsafe.Pointer(&vC[0])
		a.src[4], a.src[5] = unsafe.Pointer(&vAC[0]), unsafe.Pointer(&vBC[0])
		a.src[6] = unsafe.Pointer(&vABC[0])
		a.keep, a.cons, a.x = unsafe.Pointer(&keep[0]), unsafe.Pointer(&cons[0]), unsafe.Pointer(&x[0])
		a.n = int64(n)
		a.go1, a.go2, a.c0, a.c1 = go1, go2, c0, c1
		if s == stAB {
			a.y = unsafe.Pointer(&y[0])
			affinePairAB32(&a)
		} else {
			affinePairA32(&a)
		}
		return
	}
	if s == stAB {
		// AB: own AB, one {A, B}, two {C, AC, BC, ABC}; ABC is the
		// plain maximum of all seven.
		for t := range keep {
			m1 := max(vA[t], vB[t])
			m2 := max(vC[t], vAC[t], vBC[t], vABC[t])
			keep[t] = max(vAB[t], m1+go1, m2+go2) + c0
			cons[t] = max(vAB[t], m1, m2) + c1 + x[t] + y[t]
		}
		return
	}
	// A has own A, one {AB, AC}, two {B, C, BC, ABC}; AC has own AC, one
	// {A, C}, two {B, AB, BC, ABC}. B and BC mirror them with A and B
	// swapped.
	for t := range keep {
		m := max(vB[t], vBC[t], vABC[t])
		keep[t] = max(vA[t], max(vAB[t], vAC[t])+go1, max(m, vC[t])+go2) + c0
		cons[t] = max(vAC[t], max(vA[t], vC[t])+go1, max(m, vAB[t])+go2) + c1 + x[t]
	}
}

// groupMax is state s's best predecessor entry from cell t of the lanes
// src: max(own, max(one)+go1, max(two)+go2).
func (f *affineFill) groupMax(src *affineLanes, s, t int) mat.Score {
	g := &affineGroups[s]
	return max(src[g.own][t],
		max(src[g.one[0]][t], src[g.one[1]][t])+f.go1[s],
		max(src[g.two[0]][t], src[g.two[1]][t], src[g.two[2]][t], src[g.two[3]][t])+f.go2[s])
}

func fillNegInf(out []mat.Score) {
	for k := range out {
		out[k] = mat.NegInf
	}
}

// chainC fills GGX, the state whose predecessors lie in its own lane at
// k-1. The best entry from the other six states is independent per cell;
// only GGX's own extension, max(C[k-1], ·) + ge2, runs serially. Cells
// lo-1 ≥ 0 of all seven lanes must be complete.
func (f *affineFill) chainC(cur *affineLanes, lo, hi int) {
	g := &affineGroups[stC]
	w := lo - 1
	lane := cur[stC-1][w:hi]
	out := lane[1:]
	n := len(out)
	a0, a1 := cur[g.one[0]][w:][:n], cur[g.one[1]][w:][:n]
	b0, b1 := cur[g.two[0]][w:][:n], cur[g.two[1]][w:][:n]
	b2, b3 := cur[g.two[2]][w:][:n], cur[g.two[3]][w:][:n]
	if f.vec && n >= 8 {
		var a affineChainArgs
		a.out = unsafe.Pointer(&lane[0])
		a.src[0], a.src[1] = unsafe.Pointer(&a0[0]), unsafe.Pointer(&a1[0])
		a.src[2], a.src[3] = unsafe.Pointer(&b0[0]), unsafe.Pointer(&b1[0])
		a.src[4], a.src[5] = unsafe.Pointer(&b2[0]), unsafe.Pointer(&b3[0])
		a.n = int64(n)
		affineChainC32(&a, &f.chain)
		return
	}
	go1, go2, ge2 := f.go1[stC], f.go2[stC], f.ge2
	v := lane[0]
	for k := range out {
		v = max(v, max(a0[k], a1[k])+go1, max(b0[k], b1[k], b2[k], b3[k])+go2) + ge2
		out[k] = v
	}
}
