// Package pairwise implements two-sequence global alignment under linear
// and affine gap penalties.
//
// It is a substrate of the three-sequence aligner in three roles: its
// forward/backward score matrices feed the Carrillo–Lipman pruning bounds,
// its global aligners implement the center-star and progressive baselines,
// and its Hirschberg variant is the 2D prototype of the 3D linear-space
// algorithm. All aligners maximize; gap penalties are non-positive scores
// taken from a scoring.Scheme.
package pairwise

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// Op is one column of a pairwise alignment.
type Op uint8

const (
	// OpBoth consumes one residue of each sequence (match or mismatch).
	OpBoth Op = iota
	// OpA consumes a residue of the first sequence against a gap.
	OpA
	// OpB consumes a residue of the second sequence against a gap.
	OpB
)

// Result is a scored pairwise alignment expressed as a column sequence.
type Result struct {
	Score mat.Score
	Ops   []Op
}

// Strings renders the alignment as two equal-length gapped rows.
func (r Result) Strings(a, b *seq.Sequence) (rowA, rowB string) {
	bufA := make([]byte, 0, len(r.Ops))
	bufB := make([]byte, 0, len(r.Ops))
	i, j := 0, 0
	for _, op := range r.Ops {
		switch op {
		case OpBoth:
			bufA = append(bufA, a.At(i))
			bufB = append(bufB, b.At(j))
			i, j = i+1, j+1
		case OpA:
			bufA = append(bufA, a.At(i))
			bufB = append(bufB, '-')
			i++
		case OpB:
			bufA = append(bufA, '-')
			bufB = append(bufB, b.At(j))
			j++
		}
	}
	return string(bufA), string(bufB)
}

// Consumed returns how many residues of each sequence the ops consume.
func Consumed(ops []Op) (na, nb int) {
	for _, op := range ops {
		switch op {
		case OpBoth:
			na++
			nb++
		case OpA:
			na++
		case OpB:
			nb++
		}
	}
	return na, nb
}

// Rescore recomputes the linear-gap score of ops against the two code
// strings, independent of any DP matrix; tests use it to cross-check
// tracebacks.
func Rescore(ops []Op, a, b []int8, sch *scoring.Scheme) (mat.Score, error) {
	na, nb := Consumed(ops)
	if na != len(a) || nb != len(b) {
		return 0, fmt.Errorf("pairwise: ops consume %d/%d residues, sequences have %d/%d", na, nb, len(a), len(b))
	}
	var total mat.Score
	i, j := 0, 0
	for _, op := range ops {
		switch op {
		case OpBoth:
			total += sch.Sub(a[i], b[j])
			i, j = i+1, j+1
		case OpA:
			total += sch.GapExtend()
			i++
		case OpB:
			total += sch.GapExtend()
			j++
		}
	}
	return total, nil
}

// Forward fills the (len(a)+1)×(len(b)+1) global-alignment score lattice
// under the linear gap model: F[i][j] is the optimal score of aligning
// a[:i] with b[:j]. Every cell is filled; the Carrillo–Lipman bounds sweep
// only the bands they can admit (Forwards). The plane is drawn from the
// mat arena; callers that are done with it may hand it back with
// mat.PutPlane.
func Forward(a, b []int8, sch *scoring.Scheme) *mat.Plane {
	n, m := len(a), len(b)
	ge := sch.GapExtend()
	f := mat.GetPlane(n+1, m+1)
	row0 := f.Row(0)
	row0[0] = 0
	for j := 1; j <= m; j++ {
		row0[j] = row0[j-1] + ge
	}
	prof := newProfile(b, sch)
	for i := 1; i <= n; i++ {
		prev := f.Row(i - 1)
		cur := f.Row(i)
		cur[0] = prev[0] + ge
		forwardRow(prev, cur, prof.row(a[i-1]), ge)
	}
	prof.release()
	return f
}

// forwardRow fills cur[1:] with row i of the Forward recurrence
//
//	F[i][j] = max(F[i-1][j-1] + sub[j-1], F[i-1][j] + ge, F[i][j-1] + ge)
//
// from prev = row i-1 and the already-set cur[0], where sub is the
// profile row of a[i-1] (sub[j] = sub(a[i-1], b[j])).
func forwardRow(prev, cur, sub []mat.Score, ge mat.Score) {
	m := len(sub)
	prev, cur = prev[:m+1:m+1], cur[:m+1:m+1]
	diag, left := prev[0], cur[0]
	for j, s := range sub {
		up := prev[j+1]
		best := max(diag+s, up+ge, left+ge)
		cur[j+1] = best
		diag, left = up, best
	}
}

// backwardRow is forwardRow mirrored for the suffix recurrence: it fills
// cur[:m] with row i from next = row i+1 and the already-set cur[m],
// scanning from j = m-1 down to 0, where sub is the profile row of a[i].
func backwardRow(next, cur, sub []mat.Score, ge mat.Score) {
	m := len(sub)
	next, cur = next[:m+1:m+1], cur[:m+1:m+1]
	diag, right := next[m], cur[m]
	for j := m - 1; j >= 0; j-- {
		down := next[j]
		best := max(diag+sub[j], down+ge, right+ge)
		cur[j] = best
		diag, right = down, best
	}
}

// profile is b's query profile under a scheme: row c holds sub(c, b[j])
// for every j, so a sweep over b reads each row's scores in order instead
// of looking every one up by residue.
type profile struct {
	scores []mat.Score
	m      int
}

func newProfile(b []int8, sch *scoring.Scheme) profile {
	size := len(sch.SubRow(0))
	p := profile{scores: mat.GetScores(size * len(b)), m: len(b)}
	for c := range size {
		sub, row := sch.SubRow(int8(c)), p.row(int8(c))
		for j, r := range b {
			row[j] = sub[r]
		}
	}
	return p
}

// row is the profile row of residue code c.
func (p profile) row(c int8) []mat.Score { return p.scores[int(c)*p.m : (int(c)+1)*p.m] }

func (p profile) release() { mat.PutScores(p.scores) }

// Backward returns the suffix lattice: B[i][j] is the optimal score of
// aligning a[i:] with b[j:]. It runs the suffix recurrence
//
//	B[i][j] = max(B[i+1][j+1] + sub(a[i], b[j]), B[i+1][j] + ge, B[i][j+1] + ge)
//
// directly, from the (len(a), len(b)) corner back to the origin. Like
// Forward, the plane may be returned to the arena with mat.PutPlane.
func Backward(a, b []int8, sch *scoring.Scheme) *mat.Plane {
	n, m := len(a), len(b)
	ge := sch.GapExtend()
	bw := mat.GetPlane(n+1, m+1)
	next := bw.Row(n)
	next[m] = 0
	for j := m - 1; j >= 0; j-- {
		next[j] = next[j+1] + ge
	}
	prof := newProfile(b, sch)
	for i := n - 1; i >= 0; i-- {
		cur := bw.Row(i)
		cur[m] = next[m] + ge
		backwardRow(next, cur, prof.row(a[i]), ge)
		next = cur
	}
	prof.release()
	return bw
}

// Global computes an optimal global alignment under the linear gap model
// (Needleman–Wunsch) with full-matrix traceback.
func Global(a, b []int8, sch *scoring.Scheme) Result {
	f := Forward(a, b, sch)
	defer mat.PutPlane(f)
	return TraceForward(f, a, b, sch)
}

// TraceForward recovers Global's alignment of a with b from their filled
// Forward plane f. The walk back from the (len(a), len(b)) corner prefers
// OpBoth, then OpA, then OpB, so callers that already hold the plane get
// Global's exact ops without a second fill.
func TraceForward(f *mat.Plane, a, b []int8, sch *scoring.Scheme) Result {
	return trace(a, b, sch, f.At)
}

// TraceForwardT is TraceForward given the Forward plane of (b, a) instead.
// Substitution tables are symmetric, so that plane is the transpose of
// (a, b)'s; the walk reads it with swapped indices and returns the same
// ops as Global(a, b).
func TraceForwardT(ft *mat.Plane, a, b []int8, sch *scoring.Scheme) Result {
	return trace(a, b, sch, func(i, j int) mat.Score { return ft.At(j, i) })
}

// trace walks a Forward lattice of (a, b), read through at, back from its
// last cell in Global's move preference.
func trace(a, b []int8, sch *scoring.Scheme, at func(i, j int) mat.Score) Result {
	n, m := len(a), len(b)
	ge := sch.GapExtend()
	ops := make([]Op, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		v := at(i, j)
		switch {
		case i > 0 && j > 0 && v == at(i-1, j-1)+sch.Sub(a[i-1], b[j-1]):
			ops = append(ops, OpBoth)
			i, j = i-1, j-1
		case i > 0 && v == at(i-1, j)+ge:
			ops = append(ops, OpA)
			i--
		case j > 0 && v == at(i, j-1)+ge:
			ops = append(ops, OpB)
			j--
		default:
			panic(fmt.Sprintf("pairwise: traceback stuck at (%d,%d)", i, j))
		}
	}
	reverseOps(ops)
	return Result{Score: at(n, m), Ops: ops}
}

func reverseOps(ops []Op) {
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
}

// GlobalScore computes only the optimal global score in O(min-row) space.
func GlobalScore(a, b []int8, sch *scoring.Scheme) mat.Score {
	row := lastRow(a, b, sch)
	s := row[len(b)]
	mat.PutScores(row)
	return s
}

// lastRow returns the final row of the Forward lattice using two rows of
// memory; it is the workhorse of the Hirschberg recursion. The row comes
// from the mat arena; the caller must release it with mat.PutScores.
func lastRow(a, b []int8, sch *scoring.Scheme) []mat.Score {
	m := len(b)
	ge := sch.GapExtend()
	prev := mat.GetScores(m + 1)
	cur := mat.GetScores(m + 1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + ge
	}
	prof := newProfile(b, sch)
	for i := 1; i <= len(a); i++ {
		cur[0] = prev[0] + ge
		forwardRow(prev, cur, prof.row(a[i-1]), ge)
		prev, cur = cur, prev
	}
	prof.release()
	mat.PutScores(cur)
	return prev
}
