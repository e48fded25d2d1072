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
// On AVX2 hosts one call of affineRow32 (affine_amd64.s) fills every
// interior lane of a block row: a fixed i ≥ 1, j over the block's span
// (j ≥ 1) and cells lo..hi-1 with hi-lo ≥ 9, so that every walk has 8
// cells or more. The kernel finds the (i, j), (i-1, j), (i, j-1) and
// (i-1, j-1) lanes of all seven states from the row's base pointers and
// the lane stride, reads sAB and the B-vs-C score row through cb[j-1] and
// the pair profile, and runs the single cells, the three pair walks and
// the GGX chain of each lane in the order the Go pass does. The pair
// walks are the Go loops over vectors. The chain becomes a max-plus
// prefix scan, which regroups the serial max(v, ·) + ge2 steps by
// distributing the add over the maximum; that is exact for integers that
// do not wrap, and with the gap costs bounded by affineVecSafe every
// candidate stays far inside int32, so the vector pass writes the same
// lattices bit for bit. Boundary lanes (i = 0 or j = 0), rows of short
// lanes, hosts without AVX2 and runs with laneAsmEnabled cleared take the
// Go pass below, which stays the portable implementation.

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

// affineFill holds one fill's inputs and scheme constants for the lane
// pass: the A and B codes, the pair profile of C (row a is Sub(a, cc[k-1])
// at k ≥ 1), and the open charges. Release it when the fill is done.
type affineFill struct {
	ca, cb   []int8
	prof     *pairProfile
	sch      *scoring.Scheme
	go1, go2 [8]mat.Score // open charge of the one and two groups, per successor mask
	ge2      mat.Score    // two gap extends: a one-consumer column's base score
	vec      bool         // run the AVX2 row kernel
	k        affineRowConsts
}

// newAffineFill derives the pass constants from sch and builds the pair
// profile of cc. The vector kernel is admitted when the host has it,
// laneAsmEnabled is set and the gap costs pass affineVecSafe; the
// decision holds for the fill's lifetime.
func newAffineFill(ca, cb, cc []int8, sch *scoring.Scheme) affineFill {
	f := affineFill{ca: ca, cb: cb, prof: newPairProfile(cc, sch), sch: sch, ge2: 2 * sch.GapExtend()}
	for s := 1; s < 8; s++ {
		f.go1[s] = mat.Score(affineGroups[s].opens[0]) * sch.GapOpen()
		f.go2[s] = mat.Score(affineGroups[s].opens[1]) * sch.GapOpen()
	}
	f.vec = haveLaneAsm && laneAsmEnabled && affineVecSafe(sch)
	k := &f.k
	k.go1, k.go2 = f.go1[stC], f.go2[stC]
	k.ge2, k.ge2x2, k.ge2x4 = f.ge2, 2*f.ge2, 4*f.ge2
	for i := range k.ramp {
		k.ramp[i] = mat.Score(i+1) * f.ge2
	}
	return f
}

func (f *affineFill) release() {
	f.prof.release()
	f.prof = nil
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

// affineVecMinCells is the shortest k range the row kernel takes: every
// pair walk (hi-lo-1 cells) and chain walk then has at least 8 cells.
const affineVecMinCells = 9

// affineRowArgs is the argument block of affineRow32 and affineRowConsts
// its constants. The kernel fills lanes j0..j0+lanes-1 of row i, cells
// lo..hi-1: lane j of state s starts at cur[s] + (j-j0)·stride and its
// (i-1) lane at up[s] + (j-j0)·stride, so lane j0-1 must exist; cb[j-1]
// selects lane j's profile row (prof + code·profStride) and sAB = sub[code].
// The layouts are part of the assembly's contract and pinned by the
// assertions below.
type affineRowArgs struct {
	cur, up            [7]unsafe.Pointer // lane j0 of rows i and i-1, cell 0, by mask-1
	cb, prof, sub, ac  unsafe.Pointer    // cb[j0-1]; profile row 0; Sub(ca[i-1], ·); profile row of ca[i-1]
	lanes, stride      int64             // lanes to fill; bytes from lane j to j+1
	profStride, lo, hi int64             // bytes from profile row a to a+1; hi-lo ≥ affineVecMinCells
}

type affineRowConsts struct {
	go1, go2          mat.Score // open charges of the one and two groups (equal for every mask but XXX)
	ge2, ge2x2, ge2x4 mat.Score
	_                 int32
	ramp              [8]mat.Score // (1..8)·ge2
}

const (
	affOffRowCB    = unsafe.Offsetof(affineRowArgs{}.cb)
	affOffRowLanes = unsafe.Offsetof(affineRowArgs{}.lanes)
	affOffRowHi    = unsafe.Offsetof(affineRowArgs{}.hi)
	affOffRowGE2   = unsafe.Offsetof(affineRowConsts{}.ge2)
	affOffRowRamp  = unsafe.Offsetof(affineRowConsts{}.ramp)
)

var (
	_ [affOffRowCB - 112]byte
	_ [112 - affOffRowCB]byte
	_ [affOffRowLanes - 144]byte
	_ [144 - affOffRowLanes]byte
	_ [affOffRowHi - 176]byte
	_ [176 - affOffRowHi]byte
	_ [affOffRowGE2 - 8]byte
	_ [8 - affOffRowGE2]byte
	_ [affOffRowRamp - 24]byte
	_ [24 - affOffRowRamp]byte
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

// affineRow addresses row i of the seven state lattices: lane j of state
// s is cells j·nk … j·nk+nk-1 of cur[s], and of up[s] for row i-1 (nil
// at i = 0).
type affineRow struct {
	cur, up [7][]mat.Score
	nk      int
}

// lanes gathers lane j of rows (r.cur or r.up) into dst.
func (r *affineRow) lanes(rows *[7][]mat.Score, j int, dst *affineLanes) {
	off := j * r.nk
	for s := range rows {
		dst[s] = rows[s][off : off+r.nk]
	}
}

// row fills lanes ja..jb-1, cells lo..hi-1, of row i. Every predecessor
// cell must be complete: cell lo-1 of these lanes when lo > 0, lane ja-1
// when ja > 0, and the (i-1) lanes. At i = 0, j = 0 and lo = 0 the origin
// cell is left to its seed.
func (f *affineFill) row(r *affineRow, i, ja, jb, lo, hi int) {
	var acRow, subA []mat.Score
	if i > 0 {
		acRow, subA = f.prof.Row(f.ca[i-1]), f.sch.SubRow(f.ca[i-1])
	}
	if f.vec && i > 0 && hi-lo >= affineVecMinCells {
		if ja == 0 {
			f.goLanes(r, acRow, subA, 0, 1, lo, hi)
			ja = 1
		}
		if ja < jb {
			f.vecLanes(r, acRow, subA, ja, jb, lo, hi)
		}
		return
	}
	f.goLanes(r, acRow, subA, ja, jb, lo, hi)
}

// vecLanes runs the row kernel over lanes ja ≥ 1 to jb-1 of an i ≥ 1 row.
func (f *affineFill) vecLanes(r *affineRow, acRow, subA []mat.Score, ja, jb, lo, hi int) {
	if ja < 1 || jb-1 > len(f.cb) || lo < 0 || hi > r.nk || len(acRow) != r.nk {
		panic(fmt.Sprintf("core: affine row kernel out of range: lanes %d..%d cells %d..%d of %d", ja, jb, lo, hi, r.nk))
	}
	var a affineRowArgs
	off, end := ja*r.nk, jb*r.nk // slicing to end checks the last lane is there
	for s := range a.cur {
		a.cur[s] = unsafe.Pointer(&r.cur[s][off:end][0])
		a.up[s] = unsafe.Pointer(&r.up[s][off:end][0])
	}
	rows := f.prof.rows
	a.cb = unsafe.Pointer(&f.cb[ja-1])
	a.prof = unsafe.Pointer(&rows.Cells()[0])
	a.sub = unsafe.Pointer(&subA[0])
	a.ac = unsafe.Pointer(&acRow[0])
	a.lanes = int64(jb - ja)
	a.stride = int64(4 * r.nk)
	a.profStride = int64(4 * rows.Cols())
	a.lo, a.hi = int64(lo), int64(hi)
	affineRow32(&a, &f.k)
}

// goLanes is the portable pass over lanes ja..jb-1. The lanes at (i, j-1)
// and (i-1, j-1) are the ones the previous step gathered as its own and
// its (i-1) lanes, so after the first lane each step gathers two lane sets
// and rotates the other two in.
func (f *affineFill) goLanes(r *affineRow, acRow, subA []mat.Score, ja, jb, lo, hi int) {
	var lanes [4]affineLanes
	cur, l10, l01, l11 := &lanes[0], &lanes[1], &lanes[2], &lanes[3]
	up := r.up[0] != nil
	for j := ja; j < jb; j++ {
		cur, l01 = l01, cur
		l10, l11 = l11, l10
		r.lanes(&r.cur, j, cur)
		var p10, p01, p11 *affineLanes
		var sAB mat.Score
		var bcRow []mat.Score
		if up {
			r.lanes(&r.up, j, l10)
			p10 = l10
		}
		if j > 0 {
			if j == ja {
				r.lanes(&r.cur, j-1, l01)
			}
			p01 = l01
			bcRow = f.prof.Row(f.cb[j-1])
		}
		if up && j > 0 {
			if j == ja {
				r.lanes(&r.up, j-1, l11)
			}
			p11 = l11
			sAB = subA[f.cb[j-1]]
		}
		l := lo
		if !up && j == 0 && l == 0 {
			l = 1 // the origin carries the boundary seed
		}
		f.lane(cur, p10, p01, p11, sAB, acRow, bcRow, l, hi)
	}
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
	// The A-shaped loop is written for s = A; B runs it over lanes with
	// A↔B and AC↔BC swapped.
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
		// AB: own AB, one {A, B}, two {C, AC, BC, ABC}; ABC is the
		// plain maximum of all seven.
		y = y[lo+1:][:n]
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
	go1, go2, ge2 := f.go1[stC], f.go2[stC], f.ge2
	v := lane[0]
	for k := range out {
		v = max(v, max(a0[k], a1[k])+go1, max(b0[k], b1[k], b2[k], b3[k])+go2) + ge2
		out[k] = v
	}
}
