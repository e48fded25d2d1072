package alignment

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/mat"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// MaxRows is the largest row count a Multi supports: one bit per row in a
// column Mask.
const MaxRows = 64

// Mask is one N-row alignment column: bit i set means row i consumes a
// residue in that column. A valid column is never zero (no all-gap columns).
type Mask uint64

// Consumes reports whether row i consumes a residue under m.
func (m Mask) Consumes(i int) bool { return m&(1<<uint(i)) != 0 }

// Multi is a scored N-row multiple sequence alignment: the generalization
// of the three-row Alignment this package grew from. Row i of the alignment
// is Seqs[i] gapped according to the column masks. The three-row Alignment
// is a thin wrapper over this layout (see Alignment.Multi and FromMulti).
type Multi struct {
	Seqs []*seq.Sequence
	Cols []Mask
	// Score is the objective value reported by the algorithm that produced
	// the alignment (linear SP, or natural affine SP). SPScore and
	// SPScoreAffine recompute the two objectives independently.
	Score mat.Score
}

// NewLeaf wraps a single sequence as a one-row profile: every column
// consumes, which is the identity alignment progressive merging starts
// from.
func NewLeaf(s *seq.Sequence) *Multi {
	cols := make([]Mask, s.Len())
	for i := range cols {
		cols[i] = 1
	}
	return &Multi{Seqs: []*seq.Sequence{s}, Cols: cols}
}

// FromAlignment converts a three-row Alignment into the N-row layout. The
// move bits carry over directly: ConsumeA/B/C are bits 0/1/2.
func FromAlignment(a *Alignment) *Multi {
	cols := make([]Mask, len(a.Moves))
	for i, mv := range a.Moves {
		cols[i] = Mask(mv)
	}
	return &Multi{
		Seqs:  []*seq.Sequence{a.Triple.A, a.Triple.B, a.Triple.C},
		Cols:  cols,
		Score: a.Score,
	}
}

// ToAlignment converts a three-row Multi back into the legacy Alignment
// layout. It errors for any other row count.
func (m *Multi) ToAlignment() (*Alignment, error) {
	if len(m.Seqs) != 3 {
		return nil, fmt.Errorf("alignment: ToAlignment needs 3 rows, have %d", len(m.Seqs))
	}
	moves := make([]Move, len(m.Cols))
	for i, c := range m.Cols {
		moves[i] = Move(c)
	}
	return &Alignment{
		Triple: seq.Triple{A: m.Seqs[0], B: m.Seqs[1], C: m.Seqs[2]},
		Moves:  moves,
		Score:  m.Score,
	}, nil
}

// NumRows returns the number of aligned sequences.
func (m *Multi) NumRows() int { return len(m.Seqs) }

// Columns returns the number of alignment columns.
func (m *Multi) Columns() int { return len(m.Cols) }

// Names returns the sequence names in row order.
func (m *Multi) Names() []string {
	out := make([]string, len(m.Seqs))
	for i, s := range m.Seqs {
		out[i] = s.Name()
	}
	return out
}

// Validate checks structural integrity: a supported row count, no all-gap
// or out-of-range columns, and each row consuming exactly its sequence.
func (m *Multi) Validate() error {
	n := len(m.Seqs)
	if n < 1 || n > MaxRows {
		return fmt.Errorf("alignment: multi has %d rows; want 1..%d", n, MaxRows)
	}
	alpha := m.Seqs[0].Alphabet()
	for i, s := range m.Seqs {
		if s == nil {
			return fmt.Errorf("alignment: multi row %d is nil", i)
		}
		if s.Alphabet() != alpha {
			return fmt.Errorf("alignment: multi mixes alphabets %s/%s",
				alpha.Name(), s.Alphabet().Name())
		}
	}
	counts := make([]int, n)
	limit := Mask(1)<<uint(n) - 1
	if n == MaxRows {
		limit = ^Mask(0)
	}
	for ci, c := range m.Cols {
		if c == 0 {
			return fmt.Errorf("alignment: multi column %d is all gaps", ci)
		}
		if c&^limit != 0 {
			return fmt.Errorf("alignment: multi column %d sets bits beyond row %d", ci, n-1)
		}
		for i := 0; i < n; i++ {
			if c.Consumes(i) {
				counts[i]++
			}
		}
	}
	for i, s := range m.Seqs {
		if counts[i] != s.Len() {
			return fmt.Errorf("alignment: multi row %d consumes %d residues, sequence %q has %d",
				i, counts[i], s.Name(), s.Len())
		}
	}
	return nil
}

// RowStrings renders the gapped rows; all have length Columns().
func (m *Multi) RowStrings() []string {
	n := len(m.Seqs)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, 0, len(m.Cols))
	}
	idx := make([]int, n)
	for _, c := range m.Cols {
		for i := 0; i < n; i++ {
			if c.Consumes(i) {
				bufs[i] = append(bufs[i], m.Seqs[i].At(idx[i]))
				idx[i]++
			} else {
				bufs[i] = append(bufs[i], '-')
			}
		}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = string(bufs[i])
	}
	return out
}

// ColumnCodes iterates the alignment's columns as residue-code rows
// (scoring.Gap for gap positions). Each inner slice has NumRows entries.
func (m *Multi) ColumnCodes() [][]int8 {
	out := make([][]int8, 0, len(m.Cols))
	m.eachColumn(func(col []int8) {
		out = append(out, append([]int8(nil), col...))
	})
	return out
}

// eachColumn calls f with each column's residue codes (scoring.Gap for
// gap positions), in order. col is one buffer reused for every column.
func (m *Multi) eachColumn(f func(col []int8)) {
	n := len(m.Seqs)
	codes := make([][]int8, n)
	for i, s := range m.Seqs {
		codes[i] = s.Codes()
	}
	idx := make([]int, n)
	col := make([]int8, n)
	for _, c := range m.Cols {
		for i := 0; i < n; i++ {
			if c.Consumes(i) {
				col[i] = codes[i][idx[i]]
				idx[i]++
			} else {
				col[i] = scoring.Gap
			}
		}
		f(col)
	}
}

// SPScore recomputes the linear-gap sum-of-pairs score column by column
// over all row pairs, independent of the DP that produced the alignment.
func (m *Multi) SPScore(sch *scoring.Scheme) mat.Score {
	var total mat.Score
	n := len(m.Seqs)
	m.eachColumn(func(col []int8) {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				total += sch.Pair(col[i], col[j])
			}
		}
	})
	return total
}

// SPScoreAffine recomputes the natural affine sum-of-pairs score: for each
// induced pairwise alignment (gap-gap columns removed), every maximal gap
// run pays GapOpen once plus GapExtend per column.
func (m *Multi) SPScoreAffine(sch *scoring.Scheme) mat.Score {
	cols := m.ColumnCodes()
	n := len(m.Seqs)
	var total mat.Score
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			inGapX, inGapY := false, false
			for _, col := range cols {
				x, y := col[p], col[q]
				switch {
				case x >= 0 && y >= 0:
					total += sch.Sub(x, y)
					inGapX, inGapY = false, false
				case x >= 0 && y < 0:
					total += sch.GapExtend()
					if !inGapY {
						total += sch.GapOpen()
					}
					inGapX, inGapY = false, true
				case x < 0 && y >= 0:
					total += sch.GapExtend()
					if !inGapX {
						total += sch.GapOpen()
					}
					inGapX, inGapY = true, false
				default:
					// gap-gap column: removed from the induced pairwise
					// alignment; gap runs continue across it.
				}
			}
		}
	}
	return total
}

// SPScoreFor recomputes the scheme's own objective: the natural affine SP
// score for affine schemes, the linear SP score otherwise.
func (m *Multi) SPScoreFor(sch *scoring.Scheme) mat.Score {
	if sch.Affine() {
		return m.SPScoreAffine(sch)
	}
	return m.SPScore(sch)
}

// ConsensusSeq returns the profile's representative sequence for
// progressive merging: one residue per alignment column — the most frequent
// residue in the column (gaps do not vote; ties go to the lowest row with a
// winning residue). Every column contributes a position, so the consensus
// has exactly Columns() residues and merging the consensus back maps each
// consensus position onto one profile column ("once a gap, always a gap" at
// profile boundaries).
func (m *Multi) ConsensusSeq(name string) *seq.Sequence {
	alpha := m.Seqs[0].Alphabet()
	out := make([]byte, 0, len(m.Cols))
	for _, col := range m.ColumnCodes() {
		counts := make(map[int8]int, len(col))
		best, bestCount := scoring.Gap, 0
		for _, c := range col {
			if c < 0 {
				continue
			}
			counts[c]++
			if counts[c] > bestCount {
				best, bestCount = c, counts[c]
			}
		}
		out = append(out, alpha.Letter(best))
	}
	s, err := seq.New(name, out, alpha)
	if err != nil {
		// Unreachable: consensus letters come from the alphabet itself.
		panic(fmt.Sprintf("alignment: consensus of valid profile rejected: %v", err))
	}
	return s
}

// Reorder returns a new Multi whose row i is the receiver's row perm[i];
// perm must be a permutation of [0, NumRows). Progressive merging
// concatenates rows in guide-tree order; Reorder restores the caller's
// input order.
func (m *Multi) Reorder(perm []int) (*Multi, error) {
	n := len(m.Seqs)
	if len(perm) != n {
		return nil, fmt.Errorf("alignment: reorder permutation has %d entries for %d rows", len(perm), n)
	}
	seen := make([]bool, n)
	seqs := make([]*seq.Sequence, n)
	for i, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("alignment: reorder permutation entry %d (=%d) is out of range or repeated", i, p)
		}
		seen[p] = true
		seqs[i] = m.Seqs[p]
	}
	cols := make([]Mask, len(m.Cols))
	for ci, c := range m.Cols {
		var nc Mask
		for i, p := range perm {
			if c.Consumes(p) {
				nc |= 1 << uint(i)
			}
		}
		cols[ci] = nc
	}
	return &Multi{Seqs: seqs, Cols: cols, Score: m.Score}, nil
}

// conservationMarkN generalizes the three-row conservation annotation:
// '*' when every row carries the same residue, ':' when at least one pair
// of residues matches, ' ' otherwise.
func conservationMarkN(col []int8) byte {
	all := true
	var first int8 = scoring.Gap
	anyPair := false
	for i, c := range col {
		if c < 0 {
			all = false
			continue
		}
		if first < 0 {
			first = c
		} else if c != first {
			all = false
		}
		for j := 0; j < i; j++ {
			if col[j] >= 0 && col[j] == c {
				anyPair = true
			}
		}
	}
	switch {
	case all && first >= 0:
		return '*'
	case anyPair:
		return ':'
	default:
		return ' '
	}
}

// ConservationString returns the per-column annotation line used by Format.
func (m *Multi) ConservationString() string {
	cols := m.ColumnCodes()
	marks := make([]byte, len(cols))
	for i, col := range cols {
		marks[i] = conservationMarkN(col)
	}
	return string(marks)
}

// Format writes a block-wrapped, human-readable rendering with a
// conservation line, similar to CLUSTAL output. For three rows the output
// is byte-identical to the legacy Alignment.Format.
func (m *Multi) Format(w io.Writer, width int) error {
	if width <= 0 {
		width = 60
	}
	rows := m.RowStrings()
	marks := m.ConservationString()
	nameW := 0
	for _, s := range m.Seqs {
		if len(s.Name()) > nameW {
			nameW = len(s.Name())
		}
	}
	if nameW < 4 {
		nameW = 4
	}
	cols := len(m.Cols)
	for lo := 0; lo < cols || lo == 0 && cols == 0; lo += width {
		hi := lo + width
		if hi > cols {
			hi = cols
		}
		for i := range rows {
			if _, err := fmt.Fprintf(w, "%-*s  %s\n", nameW, m.Seqs[i].Name(), rows[i][lo:hi]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", nameW, "", marks[lo:hi]); err != nil {
			return err
		}
		if hi < cols {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if cols == 0 {
			break
		}
	}
	return nil
}

// String renders the alignment with the default width.
func (m *Multi) String() string {
	var b strings.Builder
	_ = m.Format(&b, 60)
	return b.String()
}

// WriteAlignedFASTAMulti writes the gapped rows as FASTA records — the
// N-row generalization of WriteAlignedFASTA.
func WriteAlignedFASTAMulti(w io.Writer, m *Multi, width int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if width <= 0 {
		width = 60
	}
	rows := m.RowStrings()
	for i, row := range rows {
		if _, err := fmt.Fprintf(w, ">%s\n", m.Seqs[i].Name()); err != nil {
			return err
		}
		for lo := 0; lo < len(row) || lo == 0 && row == ""; lo += width {
			hi := lo + width
			if hi > len(row) {
				hi = len(row)
			}
			if _, err := fmt.Fprintln(w, row[lo:hi]); err != nil {
				return err
			}
			if row == "" {
				break
			}
		}
	}
	return nil
}
