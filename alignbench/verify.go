package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// verdict is the checked outcome of one sample.
type verdict struct {
	good bool // 200, not degraded, and verified
	// wrong is set when alignd answered 200 with an answer that fails a
	// check; a shed or error is a failure but not a wrong answer.
	wrong string
	score int64 // returned score
	// refer is the independent optimum (triples) or the sum-of-pairs
	// upper bound (MSA), both computed by the benchmark itself.
	refer int64
}

// verifier checks answers against the inputs and a reference computed in
// this process: the exact optimum of a triple, or the Carrillo–Lipman
// upper bound of an MSA family. References are computed once per distinct
// input.
type verifier struct {
	s    *stream
	sch  *scoring.Scheme
	msa  bool
	mu   sync.Mutex
	refs map[int]int64
}

func newVerifier(s *stream, msa bool) *verifier {
	sch := scoring.DNADefault()
	if msa {
		sch = scoring.BLOSUM62()
	}
	return &verifier{s: s, sch: sch, msa: msa, refs: map[int]int64{}}
}

// prepare computes the reference of every input the samples refer to, on
// workers goroutines.
func (v *verifier) prepare(samples []sample, workers int) error {
	todo := map[int]bool{}
	for _, sm := range samples {
		if _, ok := v.refs[sm.input]; !ok {
			todo[sm.input] = true
		}
	}
	ids := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				opt, err := v.reference(id)
				if err != nil {
					errs <- err
					for range ids {
					}
					return
				}
				v.mu.Lock()
				v.refs[id] = opt
				v.mu.Unlock()
			}
		}()
	}
	for id := range todo {
		ids <- id
	}
	close(ids)
	wg.Wait()
	close(errs)
	return <-errs
}

// reference is the exact SP score of a triple input from the score-only
// plane sweep, a different kernel from any alignd plans for /v1/align, or
// the sum of pairwise optima of an MSA family.
func (v *verifier) reference(id int) (int64, error) {
	if v.msa {
		return v.pairwiseBound(id)
	}
	tr, err := v.triple(id)
	if err != nil {
		return 0, err
	}
	s, err := core.Score(context.Background(), tr, v.sch, core.Options{Workers: 1, MaxBytes: 1 << 30})
	return int64(s), err
}

func (v *verifier) triple(id int) (seq.Triple, error) {
	q := v.s.inputs[id].seqs
	var out [3]*seq.Sequence
	for i := range out {
		s, err := seq.New(fmt.Sprint(i), []byte(q[i]), v.sch.Alphabet())
		if err != nil {
			return seq.Triple{}, err
		}
		out[i] = s
	}
	return seq.Triple{A: out[0], B: out[1], C: out[2]}, nil
}

// check verifies one sample; prepare must have run for its input.
func (v *verifier) check(sm *sample) verdict {
	in := v.s.inputs[sm.input].seqs
	var vd verdict
	if sm.status != http.StatusOK {
		return vd
	}
	var rows []string
	var degraded bool
	if v.msa {
		r := sm.msa
		rows, degraded = r.Rows, r.Degraded
		vd.score, vd.refer = int64(r.Score), v.refs[sm.input]
		if !degraded && int64(r.UpperBound) != vd.refer {
			vd.wrong = fmt.Sprintf("upper_bound %d, pairwise optima sum to %d", r.UpperBound, vd.refer)
			return vd
		}
	} else {
		r := sm.align
		rows, degraded = r.Rows[:], r.Degraded
		vd.score, vd.refer = int64(r.Score), v.refs[sm.input]
	}
	if degraded {
		return vd
	}
	if err := checkRows(rows, in); err != nil {
		vd.wrong = err.Error()
		return vd
	}
	if sp := spScore(rows, v.sch); sp != vd.score {
		vd.wrong = fmt.Sprintf("reported score %d, rows re-score to %d", vd.score, sp)
		return vd
	}
	switch {
	case !v.msa && vd.score != vd.refer:
		vd.wrong = fmt.Sprintf("score %d, independent optimum %d", vd.score, vd.refer)
		return vd
	case v.msa && vd.score > vd.refer:
		vd.wrong = fmt.Sprintf("score %d above upper bound %d", vd.score, vd.refer)
		return vd
	}
	vd.good = true
	return vd
}

// pairwiseBound is the Carrillo–Lipman upper bound of an MSA family: the
// sum over sequence pairs of each pair's optimal affine-gap score. No
// alignment of the family can score above it.
func (v *verifier) pairwiseBound(id int) (int64, error) {
	q := v.s.inputs[id].seqs
	codes := make([][]int8, len(q))
	for i, r := range q {
		s, err := seq.New(fmt.Sprint(i), []byte(r), v.sch.Alphabet())
		if err != nil {
			return 0, err
		}
		codes[i] = s.Codes()
	}
	var total int64
	for i := range codes {
		for j := i + 1; j < len(codes); j++ {
			total += pairOptimum(codes[i], codes[j], v.sch)
		}
	}
	return total, nil
}

// pairOptimum is the optimal global score of a and b under the scheme's
// affine gaps (Gotoh): a gap run of length L costs GapOpen + L·GapExtend,
// scored as spScore scores a pair of rows. Three states per cell — the
// last column pairs two residues (m), consumes a only (x), or b only (y) —
// kept one row at a time.
func pairOptimum(a, b []int8, sch *scoring.Scheme) int64 {
	const negInf = math.MinInt64 / 4
	open, ext := int64(sch.GapOpen()), int64(sch.GapExtend())
	n := len(b)
	m, x, y := make([]int64, n+1), make([]int64, n+1), make([]int64, n+1)
	pm, px, py := make([]int64, n+1), make([]int64, n+1), make([]int64, n+1)
	for j := range pm {
		pm[j], px[j], py[j] = negInf, negInf, open+int64(j)*ext
	}
	pm[0], py[0] = 0, negInf
	for i := 1; i <= len(a); i++ {
		m[0], x[0], y[0] = negInf, open+int64(i)*ext, negInf
		for j := 1; j <= n; j++ {
			m[j] = max(pm[j-1], px[j-1], py[j-1]) + int64(sch.Sub(a[i-1], b[j-1]))
			x[j] = max(pm[j]+open, px[j], py[j]+open) + ext
			y[j] = max(m[j-1]+open, y[j-1], x[j-1]+open) + ext
		}
		m, pm = pm, m
		x, px = px, x
		y, py = py, y
	}
	return max(pm[n], px[n], py[n])
}

// checkRows verifies the rows are one alignment of the inputs: equal
// lengths, no all-gap column, and each row degaps to its input.
func checkRows(rows, in []string) error {
	if len(rows) != len(in) {
		return fmt.Errorf("%d rows for %d inputs", len(rows), len(in))
	}
	for i, r := range rows {
		if len(r) != len(rows[0]) {
			return fmt.Errorf("row %d has %d columns, row 0 has %d", i, len(r), len(rows[0]))
		}
		if strings.ReplaceAll(r, "-", "") != in[i] {
			return fmt.Errorf("row %d does not degap to its input", i)
		}
	}
	for c := 0; c < len(rows[0]); c++ {
		gaps := 0
		for _, r := range rows {
			if r[c] == '-' {
				gaps++
			}
		}
		if gaps == len(rows) {
			return fmt.Errorf("column %d is all gaps", c)
		}
	}
	return nil
}

// spScore re-scores rows as the sum over row pairs of each induced
// pairwise alignment (gap-gap columns dropped): substitutions from the
// scheme's table, every gap column GapExtend, and every maximal gap run
// GapOpen once.
func spScore(rows []string, sch *scoring.Scheme) int64 {
	alpha := sch.Alphabet()
	var total int64
	for p := 0; p < len(rows); p++ {
		for q := p + 1; q < len(rows); q++ {
			var run byte // which row the current gap run is in: 'p', 'q' or 0
			for c := 0; c < len(rows[p]); c++ {
				x, y := rows[p][c], rows[q][c]
				switch {
				case x == '-' && y == '-':
				case x != '-' && y != '-':
					total += int64(sch.Sub(alpha.Code(x), alpha.Code(y)))
					run = 0
				default:
					in := byte('p')
					if y == '-' {
						in = 'q'
					}
					total += int64(sch.GapExtend())
					if run != in {
						total += int64(sch.GapOpen())
					}
					run = in
				}
			}
		}
	}
	return total
}
