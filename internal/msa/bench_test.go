package msa

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// BenchmarkProfileRowInterior measures the profile DP's row loops alone:
// one 300-residue DNA row re-aligned against the two-row profile of a
// 300-residue pair at about 70% identity, every row of the
// (n+1)×(columns+1) plane filled from prebuilt match and gap rows by
// profileRows, as alignToProfile runs it for each refinement step. Covered by the CI
// zero-alloc gate.
func BenchmarkProfileRowInterior(b *testing.B) {
	tr := seq.NewGenerator(seq.DNA, 7000).RelatedTriple(300,
		seq.MutationModel{SubstitutionRate: 0.16, InsertionRate: 0.04, DeletionRate: 0.04})
	sch := scoring.DNADefault()
	star, err := CenterStar(tr, sch)
	if err != nil {
		b.Fatal(err)
	}
	// The profile of rows B and C on the center-star columns, scored as
	// alignToProfile scores it.
	var prof [][]int8
	for _, col := range star.Multi().ColumnCodes() {
		if col[1] != scoring.Gap || col[2] != scoring.Gap {
			prof = append(prof, col[1:])
		}
	}
	r := tr.A.Codes()
	n, m := len(r), len(prof)
	size := sch.Alphabet().Size()
	match := make([]mat.Score, size*m)
	gapR := make([]mat.Score, m)
	for j, col := range prof {
		gapR[j] = sch.Pair(scoring.Gap, col[0]) + sch.Pair(scoring.Gap, col[1])
		for c := range size {
			match[c*m+j] = sch.Pair(int8(c), col[0]) + sch.Pair(int8(c), col[1])
		}
	}
	gapCol := 2 * sch.GapExtend()
	f := mat.GetPlane(n+1, m+1)
	defer mat.PutPlane(f)
	row0 := f.Row(0)
	for j := 1; j <= m; j++ {
		row0[j] = row0[j-1] + gapR[j-1]
	}
	cells := int64(n) * int64(m)
	b.ReportAllocs()
	b.ResetTimer()
	matchRow := func(c int8) []mat.Score { return match[int(c)*m : int(c)*m+m] }
	for it := 0; it < b.N; it++ {
		profileRows(f, r, matchRow, gapR, gapCol)
	}
	b.StopTimer() // exclude the metric bookkeeping from the alloc count
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
