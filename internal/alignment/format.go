package alignment

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/seq"
)

// WriteClustal writes the alignment in CLUSTAL-style format: a header line,
// then 60-column blocks of name-prefixed rows with cumulative residue
// counts and a conservation line.
func WriteClustal(w io.Writer, a *Alignment) error {
	if err := a.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "CLUSTAL-like multiple sequence alignment (repro three-sequence aligner)\n\n")
	m := a.Multi()
	rows, marks, names := m.RowStrings(), m.ConservationString(), m.Names()
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	if nameW < 8 {
		nameW = 8
	}
	counts := [3]int{}
	const width = 60
	for lo := 0; lo < len(marks); lo += width {
		hi := lo + width
		if hi > len(marks) {
			hi = len(marks)
		}
		for r := 0; r < 3; r++ {
			chunk := rows[r][lo:hi]
			counts[r] += len(chunk) - strings.Count(chunk, "-")
			fmt.Fprintf(bw, "%-*s %s %d\n", nameW, names[r], chunk, counts[r])
		}
		fmt.Fprintf(bw, "%-*s %s\n\n", nameW, "", marks[lo:hi])
	}
	return bw.Flush()
}

// WriteAlignedFASTA writes the three gapped rows as FASTA records, the
// interchange format most MSA tools accept.
func WriteAlignedFASTA(w io.Writer, a *Alignment, width int) error {
	// Validate the triple first: Multi.Validate reads row 0 before it
	// checks rows for nil.
	if err := a.Validate(); err != nil {
		return err
	}
	return WriteAlignedFASTAMulti(w, a.Multi(), width)
}

// ParseAlignedFASTA reads three equal-length gapped FASTA rows and
// reconstructs the Alignment (sequences and move list). The score is not
// stored in the format; re-score with SPScore against a scheme.
func ParseAlignedFASTA(r io.Reader, alpha *seq.Alphabet) (*Alignment, error) {
	type record struct {
		name string
		row  []byte
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []record
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
		case strings.HasPrefix(line, ">"):
			name := fmt.Sprintf("seq%d", len(recs)+1)
			if fields := strings.Fields(line[1:]); len(fields) > 0 {
				name = fields[0]
			}
			recs = append(recs, record{name: name})
		default:
			if len(recs) == 0 {
				return nil, fmt.Errorf("alignment: row data before any '>' header")
			}
			recs[len(recs)-1].row = append(recs[len(recs)-1].row, line...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("alignment: read: %w", err)
	}
	if len(recs) != 3 {
		return nil, fmt.Errorf("alignment: need exactly 3 aligned records, got %d", len(recs))
	}
	cols := len(recs[0].row)
	if len(recs[1].row) != cols || len(recs[2].row) != cols {
		return nil, fmt.Errorf("alignment: rows have unequal lengths %d/%d/%d",
			len(recs[0].row), len(recs[1].row), len(recs[2].row))
	}

	degap := func(row []byte) []byte {
		out := make([]byte, 0, len(row))
		for _, c := range row {
			if c != '-' && c != '.' {
				out = append(out, c)
			}
		}
		return out
	}
	sa, err := seq.New(recs[0].name, degap(recs[0].row), alpha)
	if err != nil {
		return nil, err
	}
	sb, err := seq.New(recs[1].name, degap(recs[1].row), alpha)
	if err != nil {
		return nil, err
	}
	scq, err := seq.New(recs[2].name, degap(recs[2].row), alpha)
	if err != nil {
		return nil, err
	}

	moves := make([]Move, cols)
	for i := 0; i < cols; i++ {
		var m Move
		if recs[0].row[i] != '-' && recs[0].row[i] != '.' {
			m |= ConsumeA
		}
		if recs[1].row[i] != '-' && recs[1].row[i] != '.' {
			m |= ConsumeB
		}
		if recs[2].row[i] != '-' && recs[2].row[i] != '.' {
			m |= ConsumeC
		}
		if !m.Valid() {
			return nil, fmt.Errorf("alignment: column %d is all gaps", i+1)
		}
		moves[i] = m
	}
	aln := &Alignment{Triple: seq.Triple{A: sa, B: sb, C: scq}, Moves: moves}
	if err := aln.Validate(); err != nil {
		return nil, err
	}
	return aln, nil
}
