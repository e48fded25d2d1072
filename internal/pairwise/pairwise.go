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
	"sync"
	"sync/atomic"

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
// a[:i] with b[:j]. The full plane is returned because the Carrillo–Lipman
// bounds need every cell. The plane is drawn from the mat arena; callers
// that are done with it may hand it back with mat.PutPlane.
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
// aligning a[i:] with b[j:]. It runs the suffix recurrence directly, from
// the (len(a), len(b)) corner back to the origin. Like Forward, the plane
// may be returned to the arena with mat.PutPlane.
func Backward(a, b []int8, sch *scoring.Scheme) *mat.Plane {
	bw := mat.GetPlane(len(a)+1, len(b)+1)
	suffixSweep(a, b, sch, bw.Row, nil)
	return bw
}

// AddBackward adds the suffix lattice of (a, b) into f cell by cell; two
// rolling rows carry the recurrence, so no second plane is allocated. On
// the Forward plane of (a, b) it yields, in place, the through plane
// T[i][j] = Forward[i][j] + Backward[i][j]: the score of the best global
// alignment of a with b constrained to pass through the cut (i, j). It is
// the per-pair term of the Carrillo–Lipman bound — T[i][j] < L − (other
// pairs' ceilings) proves no alignment through (i, j) can reach the lower
// bound L — and every cell satisfies T[i][j] ≤ T[n][m] = the unconstrained
// optimum, with equality exactly on the optimal paths.
func AddBackward(f *mat.Plane, a, b []int8, sch *scoring.Scheme) {
	m := len(b)
	rows := [2][]mat.Score{mat.GetScores(m + 1), mat.GetScores(m + 1)}
	suffixSweep(a, b, sch, func(i int) []mat.Score { return rows[i&1] }, func(i int, row []mat.Score) {
		dst := f.Row(i)[: m+1 : m+1]
		for j, v := range row {
			dst[j] += v
		}
	})
	mat.PutScores(rows[0])
	mat.PutScores(rows[1])
}

// suffixSweep runs the suffix recurrence
//
//	B[i][j] = max(B[i+1][j+1] + sub(a[i], b[j]), B[i+1][j] + ge, B[i][j+1] + ge)
//
// from row len(a) down to row 0. row(i) supplies the storage of row i,
// which must stay readable until row i-1 is final; done, when non-nil,
// sees each row as soon as it is final.
func suffixSweep(a, b []int8, sch *scoring.Scheme, row func(i int) []mat.Score, done func(i int, r []mat.Score)) {
	n, m := len(a), len(b)
	ge := sch.GapExtend()
	next := row(n)[: m+1 : m+1]
	next[m] = 0
	for j := m - 1; j >= 0; j-- {
		next[j] = next[j+1] + ge
	}
	if done != nil {
		done(n, next)
	}
	prof := newProfile(b, sch)
	for i := n - 1; i >= 0; i-- {
		cur := row(i)[: m+1 : m+1]
		cur[m] = next[m] + ge
		backwardRow(next, cur, prof.row(a[i]), ge)
		if done != nil {
			done(i, cur)
		}
		next = cur
	}
	prof.release()
}

// Indices of a triple's three pairs in Planes.
const (
	AB = iota
	AC
	BC
)

// Planes holds one plane per pair of a triple (a, b, c), indexed AB, AC,
// BC. A bounded request fills the three Forward planes once and derives
// everything from them: the pair optima, center-star's pairwise
// alignments, and — after AddBackward — the Carrillo–Lipman through planes.
type Planes [3]*mat.Plane

// Forwards fills the Forward planes of the three pairs of (a, b, c), one
// pair per goroutine on up to workers goroutines.
func Forwards(a, b, c []int8, sch *scoring.Scheme, workers int) Planes {
	var p Planes
	parallelFor(3, workers, func(x int) {
		u, v := pairOf(a, b, c, x)
		p[x] = Forward(u, v, sch)
	})
	return p
}

// Sweeps fills both the Forward and the suffix (Backward) planes of the
// three pairs of (a, b, c): six independent sweeps, on up to workers
// goroutines. A pair's through plane is the sum of its two planes.
func Sweeps(a, b, c []int8, sch *scoring.Scheme, workers int) (fwd, bwd Planes) {
	parallelFor(6, workers, func(t int) {
		x := t % 3
		u, v := pairOf(a, b, c, x)
		if t < 3 {
			fwd[x] = Forward(u, v, sch)
		} else {
			bwd[x] = Backward(u, v, sch)
		}
	})
	return fwd, bwd
}

// AddBackwards turns the Forward planes p of (a, b, c) into their through
// planes in place (AddBackward on each pair), one pair per goroutine on up
// to workers goroutines.
func (p Planes) AddBackwards(a, b, c []int8, sch *scoring.Scheme, workers int) {
	parallelFor(3, workers, func(x int) {
		u, v := pairOf(a, b, c, x)
		AddBackward(p[x], u, v, sch)
	})
}

// pairOf returns the sequences of pair x (AB, AC or BC) of (a, b, c).
func pairOf(a, b, c []int8, x int) ([]int8, []int8) {
	switch x {
	case AB:
		return a, b
	case AC:
		return a, c
	}
	return b, c
}

// parallelFor runs f(0) … f(n-1) on up to workers goroutines.
func parallelFor(n, workers int, f func(t int)) {
	if workers <= 1 {
		for t := range n {
			f(t)
		}
		return
	}
	var (
		next atomic.Int32
		wg   sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < n; t = int(next.Add(1)) - 1 {
				f(t)
			}
		}()
	}
	wg.Wait()
}

// Optima returns each pair's unconstrained optimum, the last cell of its
// Forward plane, indexed like the planes.
func (p Planes) Optima() [3]mat.Score {
	var out [3]mat.Score
	for x, f := range p {
		out[x] = f.At(f.Rows()-1, f.Cols()-1)
	}
	return out
}

// Release returns the planes to the arena and clears them; nil entries
// are skipped, so releasing twice is safe.
func (p *Planes) Release() {
	for x := range p {
		mat.PutPlane(p[x])
		p[x] = nil
	}
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
