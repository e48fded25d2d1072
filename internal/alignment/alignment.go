// Package alignment defines the three-row alignment produced by the
// three-sequence aligners, along with validation, re-scoring, statistics,
// and text rendering.
//
// An alignment is a sequence of Moves. Each move is a bit mask saying which
// of the three sequences consume a residue in that column; at least one bit
// is always set, so a column is never all gaps.
package alignment

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// Move is a 3-bit mask describing one alignment column.
type Move uint8

// Bit assignments for Move.
const (
	ConsumeA Move = 1 << iota
	ConsumeB
	ConsumeC
)

// The seven valid moves. The names give the consumption pattern in A, B, C
// order; X consumes a residue, G leaves a gap.
const (
	MoveXGG = ConsumeA
	MoveGXG = ConsumeB
	MoveXXG = ConsumeA | ConsumeB
	MoveGGX = ConsumeC
	MoveXGX = ConsumeA | ConsumeC
	MoveGXX = ConsumeB | ConsumeC
	MoveXXX = ConsumeA | ConsumeB | ConsumeC
)

// Valid reports whether m is one of the seven legal column masks.
func (m Move) Valid() bool { return m >= 1 && m <= 7 }

// String renders the move as a three-letter consumption pattern, e.g. "XG X"
// is written "XGX".
func (m Move) String() string {
	b := [3]byte{'G', 'G', 'G'}
	if m&ConsumeA != 0 {
		b[0] = 'X'
	}
	if m&ConsumeB != 0 {
		b[1] = 'X'
	}
	if m&ConsumeC != 0 {
		b[2] = 'X'
	}
	return string(b[:])
}

// Alignment is a scored three-sequence alignment.
type Alignment struct {
	Triple seq.Triple
	Moves  []Move
	// Score is the objective value reported by the algorithm that produced
	// the alignment (linear SP, or quasi-natural affine SP for the affine
	// aligner). SPScore recomputes the linear value independently.
	Score mat.Score
}

// Columns returns the number of alignment columns.
func (a *Alignment) Columns() int { return len(a.Moves) }

// Multi returns the alignment in the N-row layout. The move bits carry
// over directly (ConsumeA/B/C are column-mask bits 0/1/2), so the
// conversion is loss-free; the three-row API below is a thin wrapper over
// the Multi operations.
func (a *Alignment) Multi() *Multi { return FromAlignment(a) }

// Rows renders the three gapped rows. All rows have length Columns().
func (a *Alignment) Rows() (ra, rb, rc string) {
	rows := a.Multi().RowStrings()
	return rows[0], rows[1], rows[2]
}

// Validate checks structural integrity: every move is legal and the moves
// consume exactly the three input sequences.
func (a *Alignment) Validate() error {
	if err := a.Triple.Validate(); err != nil {
		return err
	}
	var na, nb, nc int
	for idx, m := range a.Moves {
		if !m.Valid() {
			return fmt.Errorf("alignment: column %d has invalid move %#b", idx, uint8(m))
		}
		if m&ConsumeA != 0 {
			na++
		}
		if m&ConsumeB != 0 {
			nb++
		}
		if m&ConsumeC != 0 {
			nc++
		}
	}
	if na != a.Triple.A.Len() || nb != a.Triple.B.Len() || nc != a.Triple.C.Len() {
		return fmt.Errorf("alignment: consumes %d/%d/%d residues, inputs have %d/%d/%d",
			na, nb, nc, a.Triple.A.Len(), a.Triple.B.Len(), a.Triple.C.Len())
	}
	return nil
}

// columnCodes iterates the alignment's columns as residue-code triples
// (scoring.Gap for gap positions).
func (a *Alignment) columnCodes() [][3]int8 {
	ca, cb, cc := a.Triple.A.Codes(), a.Triple.B.Codes(), a.Triple.C.Codes()
	out := make([][3]int8, 0, len(a.Moves))
	i, j, k := 0, 0, 0
	for _, m := range a.Moves {
		col := [3]int8{scoring.Gap, scoring.Gap, scoring.Gap}
		if m&ConsumeA != 0 {
			col[0] = ca[i]
			i++
		}
		if m&ConsumeB != 0 {
			col[1] = cb[j]
			j++
		}
		if m&ConsumeC != 0 {
			col[2] = cc[k]
			k++
		}
		out = append(out, col)
	}
	return out
}

// SPScore recomputes the linear-gap sum-of-pairs score column by column,
// independent of the DP that produced the alignment.
func (a *Alignment) SPScore(sch *scoring.Scheme) mat.Score {
	return a.Multi().SPScore(sch)
}

// SPScoreAffine recomputes the natural affine sum-of-pairs score: for each
// of the three induced pairwise alignments (gap-gap columns removed), every
// maximal gap run pays GapOpen once plus GapExtend per column. This is the
// "natural" gap count; the affine DP optimizes the quasi-natural variant,
// which never exceeds it.
func (a *Alignment) SPScoreAffine(sch *scoring.Scheme) mat.Score {
	return a.Multi().SPScoreAffine(sch)
}

// Stats summarizes alignment conservation.
type Stats struct {
	Columns      int     // total alignment columns
	FullColumns  int     // columns where all three sequences have residues
	Identity3    float64 // fraction of full columns with three identical residues
	PairIdentity float64 // mean pairwise identity over residue-residue pairs
	GapColumns   int     // columns containing at least one gap
	GapFraction  float64 // gaps over all cells (3·Columns)
}

// ComputeStats derives conservation statistics.
func (a *Alignment) ComputeStats() Stats {
	st := Stats{Columns: len(a.Moves)}
	var pairSame, pairTotal, gaps int
	for _, col := range a.columnCodes() {
		full := col[0] >= 0 && col[1] >= 0 && col[2] >= 0
		if full {
			st.FullColumns++
			if col[0] == col[1] && col[1] == col[2] {
				st.Identity3++
			}
		} else {
			st.GapColumns++
		}
		for _, pr := range [3][2]int{{0, 1}, {0, 2}, {1, 2}} {
			x, y := col[pr[0]], col[pr[1]]
			if x >= 0 && y >= 0 {
				pairTotal++
				if x == y {
					pairSame++
				}
			}
		}
		for _, c := range col {
			if c < 0 {
				gaps++
			}
		}
	}
	if st.FullColumns > 0 {
		st.Identity3 /= float64(st.FullColumns)
	}
	if pairTotal > 0 {
		st.PairIdentity = float64(pairSame) / float64(pairTotal)
	}
	if st.Columns > 0 {
		st.GapFraction = float64(gaps) / float64(3*st.Columns)
	}
	return st
}

// Format writes a block-wrapped, human-readable rendering with a
// conservation line, similar to CLUSTAL output.
func (a *Alignment) Format(w io.Writer, width int) error {
	return a.Multi().Format(w, width)
}

// String renders the alignment with the default width.
func (a *Alignment) String() string {
	var b strings.Builder
	_ = a.Format(&b, 60)
	return b.String()
}
