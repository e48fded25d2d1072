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
	for i := 1; i <= n; i++ {
		prev := f.Row(i - 1)[: m+1 : m+1]
		cur := f.Row(i)[: m+1 : m+1]
		sub := sch.SubRow(a[i-1])
		diag := prev[0]
		left := prev[0] + ge
		cur[0] = left
		for j := 1; j <= m; j++ {
			up := prev[j]
			best := max(diag+sub[b[j-1]], up+ge, left+ge)
			cur[j] = best
			diag, left = up, best
		}
	}
	return f
}

// Backward returns the suffix lattice: B[i][j] is the optimal score of
// aligning a[i:] with b[j:]. It is the Forward lattice of the reversed
// sequences with both indices flipped. Like Forward, the plane may be
// returned to the arena with mat.PutPlane.
func Backward(a, b []int8, sch *scoring.Scheme) *mat.Plane {
	n, m := len(a), len(b)
	ar := reverseCodes(a)
	br := reverseCodes(b)
	fr := Forward(ar, br, sch)
	out := mat.GetPlane(n+1, m+1)
	for i := 0; i <= n; i++ {
		row := out.Row(i)
		frRow := fr.Row(n - i)
		for j := 0; j <= m; j++ {
			row[j] = frRow[m-j]
		}
	}
	mat.PutPlane(fr)
	return out
}

func reverseCodes(s []int8) []int8 {
	out := make([]int8, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}

// Through returns the projection plane T[i][j] = Forward[i][j] +
// Backward[i][j]: the score of the best global alignment of a with b
// constrained to pass through the cut (i, j). It is the per-pair term of
// the Carrillo–Lipman bound — T[i][j] < L − (other pairs' ceilings) proves
// no alignment through (i, j) can reach the lower bound L — and every cell
// of the plane satisfies T[i][j] ≤ T[n][m] = the unconstrained optimum,
// with equality exactly on the optimal paths. The plane is drawn from the
// mat arena; release it with mat.PutPlane.
func Through(a, b []int8, sch *scoring.Scheme) *mat.Plane {
	t := Forward(a, b, sch)
	bw := Backward(a, b, sch)
	n, m := len(a), len(b)
	for i := 0; i <= n; i++ {
		row := t.Row(i)[: m+1 : m+1]
		brow := bw.Row(i)[: m+1 : m+1]
		for j := 0; j <= m; j++ {
			row[j] += brow[j]
		}
	}
	mat.PutPlane(bw)
	return t
}

// Global computes an optimal global alignment under the linear gap model
// (Needleman–Wunsch) with full-matrix traceback.
func Global(a, b []int8, sch *scoring.Scheme) Result {
	n, m := len(a), len(b)
	f := Forward(a, b, sch)
	defer mat.PutPlane(f)
	ge := sch.GapExtend()
	ops := make([]Op, 0, n+m)
	i, j := n, m
	for i > 0 || j > 0 {
		v := f.At(i, j)
		switch {
		case i > 0 && j > 0 && v == f.At(i-1, j-1)+sch.Sub(a[i-1], b[j-1]):
			ops = append(ops, OpBoth)
			i, j = i-1, j-1
		case i > 0 && v == f.At(i-1, j)+ge:
			ops = append(ops, OpA)
			i--
		case j > 0 && v == f.At(i, j-1)+ge:
			ops = append(ops, OpB)
			j--
		default:
			panic(fmt.Sprintf("pairwise: traceback stuck at (%d,%d)", i, j))
		}
	}
	reverseOps(ops)
	return Result{Score: f.At(n, m), Ops: ops}
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
	for i := 1; i <= len(a); i++ {
		sub := sch.SubRow(a[i-1])
		diag := prev[0]
		left := prev[0] + ge
		cur[0] = left
		for j := 1; j <= m; j++ {
			up := prev[j]
			best := max(diag+sub[b[j-1]], up+ge, left+ge)
			cur[j] = best
			diag, left = up, best
		}
		prev, cur = cur, prev
	}
	mat.PutScores(cur)
	return prev
}
