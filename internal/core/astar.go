package core

import (
	"context"
	"fmt"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/pairwise"
	"repro/internal/scoring"
	"repro/internal/seq"
)

// astarPollInterval is how many heap pops pass between context and memory
// checks: frequent enough that cancellation latency stays in the
// microseconds, rare enough to stay off the hot path.
const astarPollInterval = 4096

// Estimated resident cost per frontier/closed node: the map entry (key +
// value + bucket overhead) plus the amortized heap entry.
const astarNodeBytes = 64

// astarNode is one open-list entry. f = g + h is the priority; g is the
// entry's tentative prefix score, used to drop stale entries whose node
// was since improved.
type astarNode struct {
	f, g mat.Score
	key  uint64
}

// astarHeap is a hand-rolled binary max-heap on f — container/heap costs
// an interface call per swap, which is measurable at millions of pops.
type astarHeap []astarNode

func (h *astarHeap) push(n astarNode) {
	*h = append(*h, n)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].f >= s[i].f {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *astarHeap) pop() astarNode {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(s) && s[l].f > s[largest].f {
			largest = l
		}
		if r < len(s) && s[r].f > s[largest].f {
			largest = r
		}
		if largest == i {
			break
		}
		s[i], s[largest] = s[largest], s[i]
		i = largest
	}
	return top
}

// AlignAStar computes the same optimum as AlignParallel by best-first search
// over the alignment lattice — Schroedl's A* formulation of bounded
// multiple alignment, specialized to three sequences. The heuristic
// h(i, j, k) = B_AB(i,j) + B_AC(i,k) + B_BC(j,k) sums the pairwise suffix
// optima: it is admissible (each pairwise projection of any three-way
// completion is a pairwise suffix alignment, so its score is bounded by
// the suffix optimum) and consistent (each backward plane's own recurrence
// dominates every single projected move), so the first expansion of a node
// carries its exact prefix score. Successors whose optimistic total
// g + cost + h falls below the incumbent lower bound L are never
// generated — the Carrillo–Lipman test applied on the fly.
//
// Memory is O(expanded + frontier nodes): nothing lattice-shaped is ever
// allocated, which makes A* the kernel of choice for very similar triples
// whose admissible region is a thin tube. The search keeps expanding until
// the best open f drops below the optimum, so every node on every optimal
// path holds its exact score and the preference-ordered traceback —
// reading absent nodes as NegInf — reproduces AlignParallel's moves exactly.
//
// The search is cancellable via ctx and enforces Options.MaxBytes against
// its live node estimate; an overrun returns ErrTooLarge like any dense
// kernel refusing an oversized lattice. The bound is the tighter of lower
// and the TrivialAlignment score (mat.NegInf for none). AlignAStar sweeps
// the pair planes in the bands that bound admits and runs Prefix.AStar on
// the suffix ones, as the planner's explicit astar kernel does after its
// center-star seed.
func AlignAStar(ctx context.Context, tr seq.Triple, sch *scoring.Scheme, opt Options, lower mat.Score) (*alignment.Alignment, PruneStats, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, PruneStats{}, err
	}
	pre, err := NewPrefix(tr, sch, pairwise.Planes{}, lower, opt.workers(), true)
	if err != nil {
		return nil, PruneStats{}, err
	}
	defer pre.Release()
	return pre.AStar(ctx, opt, lower)
}

// astarSearch is AlignAStar's search over filled suffix planes, from the
// lower bound bound. Its column scores come from C's query profile, as the
// band fill's do, and Sub(A, B) from the scheme.
func astarSearch(ctx context.Context, tr seq.Triple, ca, cb, cc []int8, sch *scoring.Scheme, opt Options, sc *suffixCtx, bound mat.Score) (*alignment.Alignment, PruneStats, error) {
	prof := newPairProfile(cc, sch)
	defer prof.release()

	n, m, p := len(ca), len(cb), len(cc)
	stats := PruneStats{TotalCells: int64(n+1) * int64(m+1) * int64(p+1), LowerBound: bound}
	strideJ := uint64(p + 1)
	strideI := uint64(m+1) * strideJ
	key := func(i, j, k int) uint64 { return uint64(i)*strideI + uint64(j)*strideJ + uint64(k) }
	target := key(n, m, p)

	ge2 := 2 * sch.GapExtend()
	g := make(map[uint64]mat.Score)
	var open astarHeap
	g[0] = 0
	open.push(astarNode{f: sc.h(0, 0, 0), g: 0, key: 0})

	// relax offers a successor: generated only when its optimistic total
	// can still reach the incumbent bound, recorded only when it improves.
	relax := func(i, j, k int, gNew mat.Score) {
		hv := sc.h(i, j, k)
		if gNew+hv < bound {
			return
		}
		kk := key(i, j, k)
		if old, ok := g[kk]; ok && old >= gNew {
			return
		}
		g[kk] = gNew
		open.push(astarNode{f: gNew + hv, g: gNew, key: kk})
	}

	haveOpt := false
	var optimum mat.Score
	var pops int64
	for len(open) > 0 {
		if pops%astarPollInterval == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, stats, err
			}
			est := int64(len(g))*astarNodeBytes + int64(cap(open))*24 + sc.planeBytes()
			if est > opt.maxBytes() {
				return nil, stats, fmt.Errorf("%w: A* frontier holds %d nodes (~%d bytes), cap %d",
					ErrTooLarge, len(g), est, opt.maxBytes())
			}
		}
		pops++
		top := open.pop()
		// Exactness requires every node on every optimal path expanded, so
		// the search drains all f ≥ optimum entries instead of stopping at
		// the first target pop.
		if haveOpt && top.f < optimum {
			break
		}
		if top.g != g[top.key] {
			continue // stale: the node was improved after this entry was pushed
		}
		stats.EvaluatedCells++
		if top.key == target && !haveOpt {
			haveOpt = true
			optimum = top.g
			if optimum > bound {
				bound = optimum // tighten the incumbent for the drain phase
			}
			continue
		}
		i := int(top.key / strideI)
		j := int(top.key % strideI / strideJ)
		k := int(top.key % strideJ)
		gv := top.g
		if i < n {
			ac := prof.Row(ca[i])
			if j < m {
				sAB := sch.Sub(ca[i], cb[j])
				if k < p {
					relax(i+1, j+1, k+1, gv+sAB+ac[k+1]+prof.Row(cb[j])[k+1]) // XXX
				}
				relax(i+1, j+1, k, gv+sAB+ge2) // XXG
			}
			if k < p {
				relax(i+1, j, k+1, gv+ac[k+1]+ge2) // XGX
			}
			relax(i+1, j, k, gv+ge2) // XGG
		}
		if j < m {
			if k < p {
				relax(i, j+1, k+1, gv+prof.Row(cb[j])[k+1]+ge2) // GXX
			}
			relax(i, j+1, k, gv+ge2) // GXG
		}
		if k < p {
			relax(i, j, k+1, gv+ge2) // GGX
		}
	}
	if !haveOpt {
		return nil, stats, fmt.Errorf("core: A* exhausted the frontier without reaching the goal (is the lower bound valid?)")
	}

	moves, err := tracebackAStar(g, key, ca, cb, cc, sch)
	if err != nil {
		return nil, stats, fmt.Errorf("core: A* traceback failed: %w", err)
	}
	aln := &alignment.Alignment{Triple: tr, Moves: moves, Score: optimum}
	stats.Optimum = optimum
	return aln, stats, nil
}

// tracebackAStar recovers the move sequence from the closed-node scores,
// testing predecessors in tracebackTensor's exact preference order. Stored
// g values never exceed the true prefix optima, so equality certifies a
// genuine optimal predecessor and absent nodes (NegInf) can never match.
func tracebackAStar(g map[uint64]mat.Score, key func(i, j, k int) uint64, ca, cb, cc []int8, sch *scoring.Scheme) ([]alignment.Move, error) {
	at := func(i, j, k int) mat.Score {
		v, ok := g[key(i, j, k)]
		if !ok {
			return mat.NegInf
		}
		return v
	}
	ge2 := 2 * sch.GapExtend()
	i, j, k := len(ca), len(cb), len(cc)
	moves := make([]alignment.Move, 0, i+j+k)
	for i > 0 || j > 0 || k > 0 {
		v := at(i, j, k)
		switch {
		case i > 0 && j > 0 && k > 0 &&
			v == at(i-1, j-1, k-1)+colXXX(sch, ca[i-1], cb[j-1], cc[k-1]):
			moves = append(moves, alignment.MoveXXX)
			i, j, k = i-1, j-1, k-1
		case i > 0 && j > 0 && v == at(i-1, j-1, k)+sch.Sub(ca[i-1], cb[j-1])+ge2:
			moves = append(moves, alignment.MoveXXG)
			i, j = i-1, j-1
		case i > 0 && k > 0 && v == at(i-1, j, k-1)+sch.Sub(ca[i-1], cc[k-1])+ge2:
			moves = append(moves, alignment.MoveXGX)
			i, k = i-1, k-1
		case j > 0 && k > 0 && v == at(i, j-1, k-1)+sch.Sub(cb[j-1], cc[k-1])+ge2:
			moves = append(moves, alignment.MoveGXX)
			j, k = j-1, k-1
		case i > 0 && v == at(i-1, j, k)+ge2:
			moves = append(moves, alignment.MoveXGG)
			i--
		case j > 0 && v == at(i, j-1, k)+ge2:
			moves = append(moves, alignment.MoveGXG)
			j--
		case k > 0 && v == at(i, j, k-1)+ge2:
			moves = append(moves, alignment.MoveGGX)
			k--
		default:
			return nil, fmt.Errorf("core: traceback stuck at (%d,%d,%d)", i, j, k)
		}
	}
	reverseMoves(moves)
	return moves, nil
}
