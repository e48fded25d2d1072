package core

import (
	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/scoring"
)

// This file builds the precomputed score tables the cell-fill kernels read
// instead of calling scoring.Scheme.Sub inside the O(n·m·p) loop.
//
// Full-matrix kernels use dense pair-score planes (scoreTables): subAB is
// (n+1)×(m+1) with subAB[i][j] = Sub(A[i-1], B[j-1]), and likewise subAC
// and subBC. A lattice cell (i, j, k) then needs one plane cell and two
// row reads that the interior loop streams sequentially. The planes cost
// O(nm + np + mp) extra memory — noise next to the O(nmp) lattice the same
// kernels allocate. Row 0 and column 0 are never read (boundary cells use
// no substitution scores) and are left unspecified.
//
// Linear-space sweeps, whose whole point is O(mp) memory, use a residue
// profile instead (pairProfile): one row per alphabet code against the
// k-axis sequence, O(σ·p) memory, with the same one-read-per-cell inner
// loop.

// scoreTablesOf holds the dense pair-score planes for one (sub-)problem,
// stored at the lattice's negotiated cell width so the interior streams the
// same element size everywhere.
type scoreTablesOf[T mat.Cell] struct {
	ab *mat.PlaneOf[T] // (n+1)×(m+1): ab[i][j] = Sub(ca[i-1], cb[j-1]) for i,j ≥ 1
	ac *mat.PlaneOf[T] // (n+1)×(p+1): ac[i][k] = Sub(ca[i-1], cc[k-1]) for i,k ≥ 1
	bc *mat.PlaneOf[T] // (m+1)×(p+1): bc[j][k] = Sub(cb[j-1], cc[k-1]) for j,k ≥ 1
}

// scoreTables is the Score-width instantiation the non-negotiated kernels
// (affine, bounded, astar, diagonal, linear) build.
type scoreTables = scoreTablesOf[mat.Score]

// newScoreTables builds the three pair-score planes from the arena. Release
// them with release when the fill and traceback are done.
func newScoreTables(ca, cb, cc []int8, sch *scoring.Scheme) *scoreTables {
	return newScoreTablesOf[mat.Score](ca, cb, cc, sch)
}

// newScoreTablesOf is newScoreTables at an arbitrary cell width.
func newScoreTablesOf[T mat.Cell](ca, cb, cc []int8, sch *scoring.Scheme) *scoreTablesOf[T] {
	st := &scoreTablesOf[T]{
		ab: mat.GetPlaneOf[T](len(ca)+1, len(cb)+1),
		ac: mat.GetPlaneOf[T](len(ca)+1, len(cc)+1),
		bc: mat.GetPlaneOf[T](len(cb)+1, len(cc)+1),
	}
	fillPairPlane(st.ab, ca, cb, sch)
	fillPairPlane(st.ac, ca, cc, sch)
	fillPairPlane(st.bc, cb, cc, sch)
	return st
}

func (st *scoreTablesOf[T]) release() {
	mat.PutPlaneOf(st.ab)
	mat.PutPlaneOf(st.ac)
	mat.PutPlaneOf(st.bc)
	st.ab, st.ac, st.bc = nil, nil, nil
}

// fillPairPlane fills p[i][j] = Sub(x[i-1], y[j-1]) for i, j ≥ 1. Row 0 and
// column 0 are left untouched (pooled planes keep stale values there).
func fillPairPlane[T mat.Cell](p *mat.PlaneOf[T], x, y []int8, sch *scoring.Scheme) {
	for i := 1; i <= len(x); i++ {
		row := p.Row(i)[1:]
		sub := sch.SubRow(x[i-1])
		for j, yc := range y {
			row[j] = T(sub[yc])
		}
	}
}

// pairProfile maps a residue code to its score row against one sequence:
// Row(a)[k] = Sub(a, z[k-1]) for k ≥ 1 (index 0 unspecified). It serves
// both the A-vs-C and B-vs-C lookups of a (j, k) plane sweep with O(σ·p)
// memory.
type pairProfile struct {
	rows *mat.Plane // σ×(len(z)+1)
}

func newPairProfile(z []int8, sch *scoring.Scheme) *pairProfile {
	n := sch.Alphabet().Size()
	pr := &pairProfile{rows: mat.GetPlane(n, len(z)+1)}
	for a := 0; a < n; a++ {
		row := pr.rows.Row(a)[1:]
		sub := sch.SubRow(int8(a))
		for k, zc := range z {
			row[k] = sub[zc]
		}
	}
	return pr
}

// Row returns the score row for residue code a; index k ≥ 1 is
// Sub(a, z[k-1]).
func (pr *pairProfile) Row(a int8) []mat.Score { return pr.rows.Row(int(a)) }

func (pr *pairProfile) release() {
	mat.PutPlane(pr.rows)
	pr.rows = nil
}

// affineOpenTable is the per-scheme gap-open transition cost:
// openPen[q][s] = openCount[q][s] · GapOpen. Precomputing it turns the
// innermost 7-state maximization into one add per predecessor state.
type affineOpenTable [8][8]mat.Score

func newAffineOpenTable(sch *scoring.Scheme) affineOpenTable {
	var t affineOpenTable
	go_ := sch.GapOpen()
	for q := 0; q < 8; q++ {
		for s := 0; s < 8; s++ {
			t[q][s] = mat.Score(openCount[q][s]) * go_
		}
	}
	return t
}

// affineBases returns, indexed by column mask s ∈ [1, 7], the
// substitution-plus-gap-extend base score of a column given the three pair
// scores of the cell — the table-driven equivalent of seven colBaseAffine
// calls.
func affineBases(sab, sac, sbc, ge mat.Score) (b [8]mat.Score) {
	ge2 := 2 * ge
	const (
		mA = alignment.ConsumeA
		mB = alignment.ConsumeB
		mC = alignment.ConsumeC
	)
	b[mA] = ge2
	b[mB] = ge2
	b[mC] = ge2
	b[mA|mB] = sab + ge2
	b[mA|mC] = sac + ge2
	b[mB|mC] = sbc + ge2
	b[mA|mB|mC] = sab + sac + sbc
	return b
}
