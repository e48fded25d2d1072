package msa

import (
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// OuterMasksFromMoves converts a three-way move list (an exact alignment of
// three profile consensus rows) into the outer column masks MergeParts
// consumes: move bits ConsumeA/B/C become part bits 0/1/2.
func OuterMasksFromMoves(moves []alignment.Move) []alignment.Mask {
	out := make([]alignment.Mask, len(moves))
	for i, m := range moves {
		out[i] = alignment.Mask(m)
	}
	return out
}

// OuterMasksFromOps converts a pairwise op list (an alignment of two profile
// consensus rows) into outer column masks: OpA consumes part 0, OpB part 1,
// OpBoth both.
func OuterMasksFromOps(ops []pairwise.Op) []alignment.Mask {
	out := make([]alignment.Mask, len(ops))
	for i, op := range ops {
		switch op {
		case pairwise.OpA:
			out[i] = 1
		case pairwise.OpB:
			out[i] = 2
		default:
			out[i] = 3
		}
	}
	return out
}

// MergeParts stitches aligned profiles into one profile along an outer
// alignment of their consensus rows ("once a gap, always a gap" at profile
// boundaries). Each part's consensus has one residue per profile column, so
// outer column masks walk the parts' columns in order: a column of the
// merged profile ORs together the next column of every consumed part
// (shifted to its row offset), and leaves the rows of unconsumed parts
// fully gapped. The result's rows are the parts' rows concatenated in part
// order; its Score is left zero for the caller to fill.
func MergeParts(parts []*alignment.Multi, outer []alignment.Mask) (*alignment.Multi, error) {
	if len(parts) < 1 || len(parts) > alignment.MaxRows {
		return nil, fmt.Errorf("msa: merge of %d parts", len(parts))
	}
	totalRows := 0
	offsets := make([]int, len(parts))
	var seqs []*seq.Sequence
	for pi, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("msa: merge part %d is nil", pi)
		}
		offsets[pi] = totalRows
		totalRows += p.NumRows()
		seqs = append(seqs, p.Seqs...)
	}
	if totalRows > alignment.MaxRows {
		return nil, fmt.Errorf("msa: merge would produce %d rows; max %d", totalRows, alignment.MaxRows)
	}
	limit := alignment.Mask(1)<<uint(len(parts)) - 1
	cols := make([]alignment.Mask, 0, len(outer))
	idx := make([]int, len(parts))
	for oi, om := range outer {
		if om == 0 || om&^limit != 0 {
			return nil, fmt.Errorf("msa: outer column %d mask %#x invalid for %d parts", oi, uint64(om), len(parts))
		}
		var col alignment.Mask
		for pi, p := range parts {
			if !om.Consumes(pi) {
				continue
			}
			if idx[pi] >= p.Columns() {
				return nil, fmt.Errorf("msa: outer alignment consumes %d+ columns of part %d, which has %d",
					idx[pi]+1, pi, p.Columns())
			}
			col |= p.Cols[idx[pi]] << uint(offsets[pi])
			idx[pi]++
		}
		cols = append(cols, col)
	}
	for pi, p := range parts {
		if idx[pi] != p.Columns() {
			return nil, fmt.Errorf("msa: outer alignment consumes %d columns of part %d, which has %d",
				idx[pi], pi, p.Columns())
		}
	}
	m := &alignment.Multi{Seqs: seqs, Cols: cols}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("msa: merged profile invalid: %w", err)
	}
	return m, nil
}

// MergePair merges two profiles through an optimal pairwise alignment of
// their consensus rows — the leftover 2-way merge of the guide-tree
// schedule. Affine schemes use the Gotoh aligner for the outer alignment.
func MergePair(a, b *alignment.Multi, sch *scoring.Scheme) (*alignment.Multi, error) {
	ca, cb := a.ConsensusSeq("a"), b.ConsensusSeq("b")
	var res pairwise.Result
	if sch.Affine() {
		res = pairwise.GlobalAffine(ca.Codes(), cb.Codes(), sch)
	} else {
		res = pairwise.Global(ca.Codes(), cb.Codes(), sch)
	}
	m, err := MergeParts([]*alignment.Multi{a, b}, OuterMasksFromOps(res.Ops))
	if err != nil {
		return nil, err
	}
	m.Score = m.SPScoreFor(sch)
	return m, nil
}

// PairOptima returns the optimal pairwise score of every pair of seqs under
// sch's own gap model, as a symmetric matrix with a zero diagonal. These
// are the terms of the Carrillo–Lipman bound and center-star's center
// choice; the affine ones come from the score-only Gotoh rows.
func PairOptima(seqs []*seq.Sequence, sch *scoring.Scheme) [][]mat.Score {
	n := len(seqs)
	codes := make([][]int8, n)
	opt := make([][]mat.Score, n)
	cells := make([]mat.Score, n*n)
	for i, s := range seqs {
		codes[i] = s.Codes()
		opt[i] = cells[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s mat.Score
			if sch.Affine() {
				s = pairwise.GlobalAffineScore(codes[i], codes[j], sch)
			} else {
				s = pairwise.GlobalScore(codes[i], codes[j], sch)
			}
			opt[i][j], opt[j][i] = s, s
		}
	}
	return opt
}

// CenterStarN generalizes the pairwise center-star heuristic to N
// sequences: the center maximizes its summed optimal pairwise score against
// all others, each satellite is aligned pairwise against the center, and
// the star is merged with the "once a gap, always a gap" rule. Rows come
// back in input order. This is the pre-guide-tree baseline the progressive
// 3-way path is measured against.
func CenterStarN(seqs []*seq.Sequence, sch *scoring.Scheme) (*alignment.Multi, error) {
	if err := checkStarSize(len(seqs)); err != nil {
		return nil, err
	}
	return CenterStarFromOptima(seqs, sch, PairOptima(seqs, sch))
}

func checkStarSize(n int) error {
	if n < 1 || n > alignment.MaxRows {
		return fmt.Errorf("msa: center-star over %d sequences", n)
	}
	return nil
}

// CenterStarFromOptima is CenterStarN with the pair optima already
// computed (PairOptima), so a caller that also needs them for the bound
// runs each pairwise fill once.
func CenterStarFromOptima(seqs []*seq.Sequence, sch *scoring.Scheme, opt [][]mat.Score) (*alignment.Multi, error) {
	n := len(seqs)
	if err := checkStarSize(n); err != nil {
		return nil, err
	}
	if len(opt) != n {
		return nil, fmt.Errorf("msa: center-star over %d sequences with %d rows of pair optima", n, len(opt))
	}
	if n == 1 {
		m := alignment.NewLeaf(seqs[0])
		m.Score = 0
		return m, nil
	}
	// Summed optimal pairwise score per candidate center.
	sums := make([]mat.Score, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sums[i] += opt[i][j]
			sums[j] += opt[i][j]
		}
	}
	center := 0
	for i := 1; i < n; i++ {
		if sums[i] > sums[center] {
			center = i
		}
	}
	sats := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != center {
			sats = append(sats, i)
		}
	}
	opLists := make([][]pairwise.Op, len(sats))
	for si, s := range sats {
		if sch.Affine() {
			opLists[si] = pairwise.GlobalAffine(seqs[center].Codes(), seqs[s].Codes(), sch).Ops
		} else {
			opLists[si] = pairwise.Global(seqs[center].Codes(), seqs[s].Codes(), sch).Ops
		}
	}
	cols := mergeStarMasks(opLists)
	// Rows are [center, sats...]; restore input order.
	ordered := append([]*seq.Sequence{seqs[center]}, make([]*seq.Sequence, 0, len(sats))...)
	for _, s := range sats {
		ordered = append(ordered, seqs[s])
	}
	star := &alignment.Multi{Seqs: ordered, Cols: cols}
	perm := make([]int, n) // row i of result = star row perm[i]
	starRowOf := make([]int, n)
	starRowOf[center] = 0
	for si, s := range sats {
		starRowOf[s] = si + 1
	}
	for i := 0; i < n; i++ {
		perm[i] = starRowOf[i]
	}
	m, err := star.Reorder(perm)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("msa: center-star produced inconsistent profile: %w", err)
	}
	m.Score = m.SPScoreFor(sch)
	return m, nil
}

// mergeStarMasks merges N-1 center-vs-satellite op lists into column masks
// over rows [center, sat1, sat2, ...] ("once a gap, always a gap").
// Satellite inserts drain in satellite order (deterministic), then a
// center-consuming column ORs in every satellite matching there.
func mergeStarMasks(opLists [][]pairwise.Op) []alignment.Mask {
	// The star has one column per op of the first list plus one per
	// insert of every other satellite.
	size := 0
	for si, ops := range opLists {
		for _, op := range ops {
			if si == 0 || op == pairwise.OpB {
				size++
			}
		}
	}
	pos := make([]int, len(opLists))
	cols := make([]alignment.Mask, 0, size)
	for {
		inserted := false
		for si, ops := range opLists {
			if pos[si] < len(ops) && ops[pos[si]] == pairwise.OpB {
				cols = append(cols, alignment.Mask(1)<<uint(si+1))
				pos[si]++
				inserted = true
				break
			}
		}
		if inserted {
			continue
		}
		done := true
		for si, ops := range opLists {
			if pos[si] < len(ops) {
				done = false
				break
			}
		}
		if done {
			break
		}
		// Every pending op consumes the center.
		col := alignment.Mask(1)
		for si, ops := range opLists {
			if pos[si] < len(ops) {
				if ops[pos[si]] == pairwise.OpBoth {
					col |= alignment.Mask(1) << uint(si+1)
				}
				pos[si]++
			}
		}
		cols = append(cols, col)
	}
	return cols
}
