package core

import (
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
)

// boundCtx carries the Carrillo–Lipman admissibility data shared by every
// bounded kernel: the three pairwise through-planes T_XY[u][v] =
// Forward[u][v] + Backward[u][v] (the best pairwise alignment score
// constrained through the cut) and the lower bound L. A lattice cell
// (i, j, k) can lie on a three-way alignment scoring ≥ L only if
//
//	T_AB[i][j] + T_AC[i][k] + T_BC[j][k] ≥ L,
//
// because each pairwise projection of a three-way alignment through
// (i, j, k) is itself a pairwise alignment through the corresponding cut,
// so its score is ≤ the through-plane value. Cells failing the test are
// pruned; with a valid L ≤ optimum, every cell of every optimal path
// passes (its projections score exactly the projected parts of an optimal
// alignment, which sum to ≥ L by definition of SP score… see DESIGN.md
// "Bounded search" for the full derivation).
//
// The through form folds six forward/backward planes into three, halving
// both the per-cell admissibility loads and the resident plane bytes.
type boundCtx struct {
	tAB, tAC, tBC *mat.Plane
	bound         mat.Score
}

// throughCtx views through planes as a bound context.
func throughCtx(th pairwise.Planes, bound mat.Score) *boundCtx {
	return &boundCtx{tAB: th[pairwise.AB], tAC: th[pairwise.AC], tBC: th[pairwise.BC], bound: bound}
}

// planeBytes reports the resident footprint of the projection planes.
func (bc *boundCtx) planeBytes() int64 {
	return bc.tAB.Bytes() + bc.tAC.Bytes() + bc.tBC.Bytes()
}

// admissible reports whether any alignment through (i, j, k) can reach the
// lower bound, by the pairwise through-projection upper bound.
func (bc *boundCtx) admissible(i, j, k int) bool {
	return bc.tAB.At(i, j)+bc.tAC.At(i, k)+bc.tBC.At(j, k) >= bc.bound
}

// suffixCtx carries the three backward (suffix) pairwise planes: the
// admissible, consistent A* heuristic h(i, j, k) = B_AB[i][j] +
// B_AC[i][k] + B_BC[j][k] overestimating the best completion of a partial
// alignment at (i, j, k).
type suffixCtx struct {
	bAB, bAC, bBC *mat.Plane
}

func newSuffixCtx(ca, cb, cc []int8, sch *scoring.Scheme) *suffixCtx {
	return &suffixCtx{
		bAB: pairwise.Backward(ca, cb, sch),
		bAC: pairwise.Backward(ca, cc, sch),
		bBC: pairwise.Backward(cb, cc, sch),
	}
}

func (sc *suffixCtx) release() {
	mat.PutPlane(sc.bAB)
	mat.PutPlane(sc.bAC)
	mat.PutPlane(sc.bBC)
	sc.bAB, sc.bAC, sc.bBC = nil, nil, nil
}

func (sc *suffixCtx) planeBytes() int64 {
	return sc.bAB.Bytes() + sc.bAC.Bytes() + sc.bBC.Bytes()
}

// h is the pairwise-relaxation heuristic: an upper bound on the score of
// completing an alignment from (i, j, k) to the terminal corner.
func (sc *suffixCtx) h(i, j, k int) mat.Score {
	return sc.bAB.At(i, j) + sc.bAC.At(i, k) + sc.bBC.At(j, k)
}
