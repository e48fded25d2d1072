package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/msa"
	"repro/internal/seq"
)

// MultiAlignment is a scored N-row multiple sequence alignment — the
// generalization of the three-row Alignment (see alignment.Multi).
type MultiAlignment = alignment.Multi

// GuideTree is the progressive-merge schedule AlignMSA follows: levels of
// independent 2- and 3-way cluster merges ending in one root.
type GuideTree = msa.GuideTree

// MaxMSASequences is the largest family AlignMSA accepts (one row bit per
// sequence in the profile column masks).
const MaxMSASequences = alignment.MaxRows

// WriteAlignedFASTAMulti writes an N-row profile as gapped FASTA wrapped
// at width columns per line.
func WriteAlignedFASTAMulti(w io.Writer, m *MultiAlignment, width int) error {
	return alignment.WriteAlignedFASTAMulti(w, m, width)
}

// MSAOptions configures AlignMSA. The embedded Options flow into every
// 3-way merge: Algorithm, Workers, MaxBytes, Fallback, and Scheme mean what
// they mean for Align. Two fields change meaning at the MSA level:
// Deadline bounds the whole progressive run, not one merge, and
// MaxMemoryBytes is a request-level budget split across each level's
// concurrent merges in proportion to the planner's byte estimates.
type MSAOptions struct {
	Options
	// GuideK is the k-mer size for guide-tree distances; non-positive
	// selects the facade's ProbeK.
	GuideK int
	// RefineRounds bounds the final iterative-refinement polish for N ≥ 4
	// families: 0 means a small default, negative disables refinement.
	// Exact results (N ≤ 3) are never refined.
	RefineRounds int
	// SerialMerges disables fanning a level's independent merges through
	// the batch layer; each merge runs alone, in schedule order. This is a
	// benchmarking and debugging knob — the batch path is the default.
	SerialMerges bool
}

// MergeInfo records one progressive merge of an AlignMSA run.
type MergeInfo struct {
	// Level is the 1-based guide-tree level the merge ran in.
	Level int
	// Members are the merged cluster IDs; Out is the resulting cluster.
	Members []int
	Out     int
	// NWay is 3 for exact 3-way merges, 2 for leftover pair merges.
	NWay int
	// Algorithm and Plan describe the 3-way kernel run (zero/nil for 2-way
	// merges, which use the pairwise aligner).
	Algorithm Algorithm
	Plan      *Plan
	// BatchSize is how many merges shared the batch submission this merge
	// ran in: >1 proves the level was fanned through the batch LPT path.
	BatchSize int
	// Elapsed is the wall-clock time of the merge's batch or serial run.
	Elapsed time.Duration
	// Degraded reports the 3-way merge fell back to the heuristic.
	Degraded bool
}

// MSAResult is a completed N-sequence multiple alignment plus execution
// metadata.
type MSAResult struct {
	// Profile is the final alignment; rows are in input-sequence order.
	Profile *MultiAlignment
	// Score is the scheme's sum-of-pairs objective of Profile.
	Score mat.Score
	// UpperBound is the Carrillo–Lipman sum-of-pairs bound: the sum of the
	// optimal pairwise scores over all sequence pairs. No multiple
	// alignment can beat it, so Score ≤ UpperBound always.
	UpperBound mat.Score
	// OptimalityGap is UpperBound − Score: 0 certifies optimality, small
	// values bound how far the progressive result can be from optimal.
	OptimalityGap mat.Score
	// Tree is the guide tree the merges followed.
	Tree *GuideTree
	// Merges records every progressive merge in execution order.
	Merges []MergeInfo
	// BatchedMerges counts merges that ran through a shared batch
	// submission (BatchSize > 1).
	BatchedMerges int
	// CenterStarScore is the N-way center-star baseline's score; AlignMSA
	// returns whichever of progressive/center-star scores better, so
	// Score ≥ CenterStarScore for N ≥ 4.
	CenterStarScore mat.Score
	// Elapsed is the wall-clock time of the whole MSA.
	Elapsed time.Duration
	// Degraded reports that at least one exact 3-way merge degraded to the
	// heuristic fallback (deadline or memory pressure).
	Degraded bool
}

// validateMSAInput checks the family shape shared by AlignMSA and PlanMSA.
func validateMSAInput(seqs []*Sequence) error {
	if len(seqs) < 2 {
		return fmt.Errorf("repro: msa needs at least 2 sequences, have %d", len(seqs))
	}
	if len(seqs) > MaxMSASequences {
		return fmt.Errorf("repro: msa accepts at most %d sequences, have %d", MaxMSASequences, len(seqs))
	}
	for i, s := range seqs {
		if s == nil || s.Len() == 0 {
			return fmt.Errorf("repro: msa sequence %d is empty", i)
		}
		if s.Alphabet() != seqs[0].Alphabet() {
			return fmt.Errorf("repro: msa mixes alphabets %s/%s",
				seqs[0].Alphabet().Name(), s.Alphabet().Name())
		}
	}
	return nil
}

func resolveMSAScheme(seqs []*Sequence, opt MSAOptions) (*Scheme, error) {
	if opt.Scheme != nil {
		return opt.Scheme, nil
	}
	return DefaultScheme(seqs[0].Alphabet())
}

// sumOfPairsBound is the Carrillo–Lipman upper bound: the sum of the
// optimal pairwise scores over all pairs.
func sumOfPairsBound(opt [][]mat.Score) mat.Score {
	var total mat.Score
	for i := range opt {
		for j := i + 1; j < len(opt); j++ {
			total += opt[i][j]
		}
	}
	return total
}

// AlignMSA aligns N sequences (2 ≤ N ≤ MaxMSASequences) progressively:
// a k-mer guide tree groups clusters into triples, each triple's profile
// consensus rows run through the exact 3-way engine (so every merge is an
// optimal three-way alignment, not a pairwise one), and profiles stitch
// under "once a gap, always a gap" at profile boundaries. Independent
// merges within a guide-tree level fan through the batch layer's LPT
// scheduling unless MSAOptions.SerialMerges is set. N=3 runs the exact
// 3-way engine directly and is bit-identical to AlignContext on the same
// triple; N=2 is an optimal pairwise alignment. For N ≥ 4 the result never
// scores below the N-way center-star baseline and is polished by bounded
// iterative refinement.
func AlignMSA(ctx context.Context, seqs []*Sequence, opt MSAOptions) (*MSAResult, error) {
	start := time.Now()
	if err := validateMSAInput(seqs); err != nil {
		return nil, err
	}
	sch, err := resolveMSAScheme(seqs, opt)
	if err != nil {
		return nil, err
	}
	if opt.Scheme == nil {
		opt.Scheme = sch
	}
	// One deadline for the whole progressive run: merges share the clock
	// instead of each restarting it.
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
		opt.Deadline = 0
	}
	guideK := opt.GuideK
	if guideK <= 0 {
		guideK = ProbeK
	}
	tree, err := msa.BuildGuideTree(seqs, guideK)
	if err != nil {
		return nil, err
	}
	res := &MSAResult{Tree: tree}

	if len(seqs) == 3 {
		// Exact path: bit-identical to AlignContext on the same triple.
		tr := Triple{A: seqs[0], B: seqs[1], C: seqs[2]}
		r, err := AlignContext(ctx, tr, opt.Options)
		if err != nil {
			return nil, err
		}
		res.Profile = r.Alignment.Multi()
		res.Score = r.Score
		res.Merges = []MergeInfo{{
			Level: 1, Members: []int{0, 1, 2}, Out: 3, NWay: 3,
			Algorithm: r.Algorithm, Plan: r.Plan, BatchSize: 1,
			Elapsed: r.Elapsed, Degraded: r.Degraded,
		}}
		res.Degraded = r.Degraded
		res.UpperBound = sumOfPairsBound(msa.PairOptima(seqs, sch))
		res.OptimalityGap = res.UpperBound - res.Score
		res.CenterStarScore = res.Score
		res.Elapsed = time.Since(start)
		return res, nil
	}

	profiles := map[int]*alignment.Multi{}
	leafOrder := map[int][]int{}
	for i, s := range seqs {
		profiles[i] = alignment.NewLeaf(s)
		leafOrder[i] = []int{i}
	}
	for li, lv := range tree.Levels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var triples []msa.Group
		var pairs []msa.Group
		for _, g := range lv.Groups {
			if len(g.Members) == 3 {
				triples = append(triples, g)
			} else {
				pairs = append(pairs, g)
			}
		}
		if len(triples) > 0 {
			items := make([]BatchItem, len(triples))
			for gi, g := range triples {
				cons := make([]*Sequence, 3)
				for mi, m := range g.Members {
					cons[mi] = profiles[m].ConsensusSeq(fmt.Sprintf("c%d", m))
				}
				items[gi] = BatchItem{
					Triple: Triple{A: cons[0], B: cons[1], C: cons[2]},
					Opt:    opt.Options,
				}
			}
			splitMergeBudget(items, opt.MaxMemoryBytes)
			levelStart := time.Now()
			var results []BatchResult
			batchSize := len(items)
			if opt.SerialMerges || len(items) == 1 {
				batchSize = 1
				results = make([]BatchResult, len(items))
				for ii, it := range items {
					r, err := AlignContext(ctx, it.Triple, it.Opt)
					results[ii] = BatchResult{Index: ii, Result: r, Err: err}
				}
			} else {
				results = AlignBatchItemsContext(ctx, items)
				res.BatchedMerges += len(items)
			}
			levelElapsed := time.Since(levelStart)
			for gi, g := range triples {
				br := results[gi]
				if br.Err != nil {
					return nil, fmt.Errorf("repro: msa merge %v at level %d: %w", g.Members, li+1, br.Err)
				}
				parts := make([]*alignment.Multi, 3)
				var order []int
				for mi, m := range g.Members {
					parts[mi] = profiles[m]
					order = append(order, leafOrder[m]...)
				}
				merged, err := msa.MergeParts(parts, msa.OuterMasksFromMoves(br.Result.Alignment.Moves))
				if err != nil {
					return nil, fmt.Errorf("repro: msa merge %v at level %d: %w", g.Members, li+1, err)
				}
				profiles[g.Out] = merged
				leafOrder[g.Out] = order
				res.Merges = append(res.Merges, MergeInfo{
					Level: li + 1, Members: g.Members, Out: g.Out, NWay: 3,
					Algorithm: br.Result.Algorithm, Plan: br.Result.Plan,
					BatchSize: batchSize, Elapsed: levelElapsed,
					Degraded: br.Result.Degraded,
				})
				if br.Result.Degraded {
					res.Degraded = true
				}
			}
		}
		for _, g := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mergeStart := time.Now()
			merged, err := msa.MergePair(profiles[g.Members[0]], profiles[g.Members[1]], sch)
			if err != nil {
				return nil, fmt.Errorf("repro: msa merge %v at level %d: %w", g.Members, li+1, err)
			}
			profiles[g.Out] = merged
			leafOrder[g.Out] = append(append([]int(nil), leafOrder[g.Members[0]]...), leafOrder[g.Members[1]]...)
			res.Merges = append(res.Merges, MergeInfo{
				Level: li + 1, Members: g.Members, Out: g.Out, NWay: 2,
				BatchSize: 1, Elapsed: time.Since(mergeStart),
			})
		}
	}

	prog := profiles[tree.Root]
	// Restore input row order: row i of the final profile must be seqs[i].
	order := leafOrder[tree.Root]
	posOf := make([]int, len(seqs))
	for pos, leaf := range order {
		posOf[leaf] = pos
	}
	prog, err = prog.Reorder(posOf)
	if err != nil {
		return nil, err
	}
	prog.Score = prog.SPScoreFor(sch)

	// One pairwise fill per pair serves both the center-star baseline and
	// the bound.
	optima := msa.PairOptima(seqs, sch)
	if len(seqs) >= 4 {
		// The progressive result must never lose to the center-star
		// baseline it replaced; keep whichever scores better.
		cs, err := msa.CenterStarFromOptima(seqs, sch, optima)
		if err != nil {
			return nil, err
		}
		res.CenterStarScore = cs.Score
		if cs.Score > prog.Score {
			prog = cs
		}
		rounds := opt.RefineRounds
		if rounds == 0 {
			rounds = 2
		}
		if rounds > 0 {
			refined, err := msa.RefineMultiContext(ctx, prog, sch, rounds)
			switch {
			case err == nil:
				prog = refined
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// Refinement is polish; keep the unrefined profile.
			default:
				return nil, err
			}
		}
	} else {
		res.CenterStarScore = prog.Score
	}

	res.Profile = prog
	res.Score = prog.Score
	res.UpperBound = sumOfPairsBound(optima)
	res.OptimalityGap = res.UpperBound - res.Score
	res.Elapsed = time.Since(start)
	return res, nil
}

// splitMergeBudget divides a request-level soft memory budget across a
// level's concurrent merges in proportion to the planner's byte estimates
// for the unbudgeted requests. Merges the planner cannot estimate fall back
// to an even share.
func splitMergeBudget(items []BatchItem, budget int64) {
	if budget <= 0 || len(items) == 0 {
		return
	}
	if len(items) == 1 {
		items[0].Opt.MaxMemoryBytes = budget
		return
	}
	est := make([]int64, len(items))
	var total int64
	for i, it := range items {
		free := it.Opt
		free.MaxMemoryBytes = 0
		if pl, err := PlanAlign(it.Triple, free); err == nil && pl.EstBytes > 0 {
			est[i] = int64(pl.EstBytes)
		} else {
			est[i] = 1
		}
		total += est[i]
	}
	for i := range items {
		share := budget * est[i] / total
		if min := budget / int64(2*len(items)); share < min {
			// Floor: a tiny merge still gets a usable slice of the budget.
			share = min
		}
		items[i].Opt.MaxMemoryBytes = share
	}
}

// MSAMergePlan is the planner's estimate for one progressive merge.
type MSAMergePlan struct {
	Level   int   `json:"level"`
	Members []int `json:"members"`
	Out     int   `json:"out"`
	NWay    int   `json:"n_way"`
	// Plan is the 3-way execution plan over the estimated consensus
	// lengths; nil for 2-way merges.
	Plan *Plan `json:"plan,omitempty"`
	// EstBytes is the merge's predicted peak allocation (the Plan's
	// estimate for 3-way merges, the pairwise DP footprint for 2-way).
	EstBytes uint64 `json:"est_bytes"`
}

// MSAPlan is a dry-run of AlignMSA: the guide tree, a per-merge execution
// plan over estimated consensus lengths, and the peak concurrent footprint
// the serving layer admits by. Estimates, not guarantees: a real merge's
// consensus can be somewhat longer than the estimate when profiles gap
// heavily.
type MSAPlan struct {
	NumSequences int            `json:"num_sequences"`
	Tree         *GuideTree     `json:"-"`
	Merges       []MSAMergePlan `json:"merges"`
	// PeakLevelBytes is the largest summed EstBytes of any one level — the
	// peak concurrent footprint when levels fan through the batch layer.
	PeakLevelBytes uint64 `json:"peak_level_bytes"`
	// TotalEstCells sums the 3-way merges' predicted DP cells.
	TotalEstCells uint64 `json:"total_est_cells"`
}

// PlanMSA plans an AlignMSA run without aligning. Consensus rows of future
// profiles are estimated at the longest member's length, with residues
// cycled from the cluster's first leaf.
func PlanMSA(seqs []*Sequence, opt MSAOptions) (*MSAPlan, error) {
	if err := validateMSAInput(seqs); err != nil {
		return nil, err
	}
	sch, err := resolveMSAScheme(seqs, opt)
	if err != nil {
		return nil, err
	}
	if opt.Scheme == nil {
		opt.Scheme = sch
	}
	guideK := opt.GuideK
	if guideK <= 0 {
		guideK = ProbeK
	}
	tree, err := msa.BuildGuideTree(seqs, guideK)
	if err != nil {
		return nil, err
	}
	mp := &MSAPlan{NumSequences: len(seqs), Tree: tree}

	// Estimated consensus sequence per cluster: leaves are themselves;
	// merged clusters reuse the first leaf's residues cycled to the longest
	// member's length.
	est := map[int]*Sequence{}
	for i, s := range seqs {
		est[i] = s
	}
	firstLeaf := map[int]*Sequence{}
	for i, s := range seqs {
		firstLeaf[i] = s
	}
	cycled := func(src *Sequence, n int) *Sequence {
		res := src.String()
		for len(res) < n {
			res += src.String()
		}
		s, err := seq.New("p", []byte(res[:n]), src.Alphabet())
		if err != nil {
			// Unreachable: residues come from a validated sequence.
			panic(fmt.Sprintf("repro: plan consensus rejected: %v", err))
		}
		return s
	}
	pairBytes := func(la, lb int) uint64 {
		planes := uint64(1)
		if sch.Affine() {
			planes = 3
		}
		return planes * uint64(la+1) * uint64(lb+1) * 4
	}
	for li, lv := range tree.Levels {
		var levelBytes uint64
		for _, g := range lv.Groups {
			maxLen := 0
			for _, m := range g.Members {
				if est[m].Len() > maxLen {
					maxLen = est[m].Len()
				}
			}
			merge := MSAMergePlan{Level: li + 1, Members: g.Members, Out: g.Out, NWay: len(g.Members)}
			if len(g.Members) == 3 {
				tr := Triple{
					A: est[g.Members[0]],
					B: est[g.Members[1]],
					C: est[g.Members[2]],
				}
				pl, err := PlanAlign(tr, opt.Options)
				if err != nil {
					return nil, fmt.Errorf("repro: planning msa merge %v: %w", g.Members, err)
				}
				merge.Plan = pl
				merge.EstBytes = pl.EstBytes
				mp.TotalEstCells += pl.EstCells
			} else {
				merge.EstBytes = pairBytes(est[g.Members[0]].Len(), est[g.Members[1]].Len())
			}
			levelBytes += merge.EstBytes
			mp.Merges = append(mp.Merges, merge)
			est[g.Out] = cycled(firstLeaf[g.Members[0]], maxLen)
			firstLeaf[g.Out] = firstLeaf[g.Members[0]]
		}
		if levelBytes > mp.PeakLevelBytes {
			mp.PeakLevelBytes = levelBytes
		}
	}
	return mp, nil
}
