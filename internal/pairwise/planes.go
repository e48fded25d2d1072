package pairwise

import (
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/scoring"
)

// Indices of a triple's three pairs in Planes.
const (
	AB = iota
	AC
	BC
)

// Planes holds one plane per pair of a triple (a, b, c), indexed AB, AC,
// BC. A bounded request sweeps the three Forward planes once and derives
// everything from them: the pair optima, center-star's pairwise
// alignments, and — with their suffix sweeps added in — the
// Carrillo–Lipman through planes.
//
// The planes are swept inside reach bands, not in full. A plane swept in
// the band of a threshold th (Reach) holds the exact value of every cell
// whose through value reaches th, a lower bound on every other cell a
// reader of that band touches, and unspecified values elsewhere; see
// Forwards and AddSuffixes for which cells those are.
type Planes struct {
	P [3]*mat.Plane
	// pairs[x] is the pair floor of the band plane x was swept in (see
	// Reach): 0 is the whole plane, so a caller that fills its own
	// planes in full leaves it unset.
	pairs [3]int
}

// sweepSlack is how many best-case residue pairs the first forward band
// gives up: on equal lengths, the cells within 8 diagonals of the main
// one. Relatives at 98% identity settle in it at 300 residues; at 70%
// the second sweep settles them.
const sweepSlack = 8

// serialSweepCells is the band size, summed over the pairs a sweep phase
// fills, below which the phase runs on the calling goroutine whatever
// the worker count. A thin band sweeps in tens of microseconds; a second
// goroutine would not shorten that, and would take the core another
// request needs.
const serialSweepCells = 1 << 16

// Forwards sweeps the Forward planes of the three pairs of (a, b, c),
// each in a band widened until it provably holds every optimal path
// (Ukkonen's band doubling, on the reach bound): a pair is first swept in
// the band that gives up sweepSlack residue pairs; when its banded
// optimum falls short of that band's own reach threshold, it is swept
// again in the band of the banded optimum, which is a real alignment's
// score and hence at most the optimum. Every cell of an optimal path
// reaches the optimum, so that band holds them all and the second sweep
// is final; a dense-ending triple's band can be the whole plane.
//
// The pair optima are therefore exact, and so are the cells of every
// optimal path, which TraceForward reads: on each of their predecessors
// the plane holds the exact value or a lower bound, so the trace takes
// Global's moves. A phase whose bands hold serialSweepCells cells or more
// runs one pair per goroutine on up to workers goroutines.
func Forwards(a, b, c []int8, sch *scoring.Scheme, workers int) Planes {
	var (
		p    Planes
		band [3]Band
	)
	for x := range p.P {
		u, v := pairOf(a, b, c, x)
		p.P[x] = mat.GetPlane(len(u)+1, len(v)+1)
		band[x] = Band{r: NewReach(len(u), len(v), sch), w: max(0, min(len(u), len(v))-sweepSlack)}
	}
	todo := []int{AB, AC, BC}
	for len(todo) > 0 {
		cells := 0
		for _, x := range todo {
			cells += band[x].cells()
		}
		sweepPairs(todo, cells, workers, func(x int) {
			u, v := pairOf(a, b, c, x)
			prof := newProfile(v, sch)
			forwardBand(p.P[x], u, prof, sch.GapExtend(), band[x])
			prof.release()
		})
		next := todo[:0]
		for _, x := range todo {
			f := p.P[x]
			// The banded optimum is exact once its own band lies inside
			// the swept one.
			if b := band[x].r.Band(f.At(f.Rows()-1, f.Cols()-1)); b.w < band[x].w {
				band[x] = b
				next = append(next, x)
			}
		}
		todo = next
	}
	for x := range band {
		p.pairs[x] = band[x].w
	}
	return p
}

// AddSuffixes turns the Forward planes p of the three pairs of (a, b, c)
// (Forwards) into their through planes T = F + B in the bands of the pair
// thresholds th, each at most its pair's optimum: a Carrillo–Lipman search
// at lower bound L passes only cells whose through value reaches
// th_XY = L − opt_XZ − opt_YZ. It first widens any forward plane swept in
// a narrower band than th's, then runs each pair's suffix sweep on two
// rolling rows (suffixBand), so no second plane is allocated. A phase
// whose bands hold serialSweepCells cells or more runs one pair per
// goroutine on up to workers goroutines.
//
// If a cell's through value T reaches th, so does that of every cell on
// its best path through it, and their reach bounds are at least T: the
// band holds the whole path, so the banded sweeps are exact on every cell
// with T ≥ th and lower bounds elsewhere. The suffix sweep also skips the
// cells where the forward value plus the reach bound of the suffix falls
// below th (they cannot have T ≥ th), and reads them as NegInf. Every
// cell of th's bands holds a value, so a Carrillo–Lipman scan of the
// bands at a bound of at least L reads no unspecified cell.
func (p *Planes) AddSuffixes(a, b, c []int8, sch *scoring.Scheme, th [3]mat.Score, workers int) {
	var (
		band  [3]Band
		cells int
	)
	for x := range band {
		u, v := pairOf(a, b, c, x)
		band[x] = NewReach(len(u), len(v), sch).Band(th[x])
		cells += band[x].cells()
		if band[x].w < p.pairs[x] {
			cells += band[x].cells()
		}
	}
	sweepPairs([]int{AB, AC, BC}, cells, workers, func(x int) {
		if band[x].empty {
			return
		}
		u, v := pairOf(a, b, c, x)
		ge := sch.GapExtend()
		prof := newProfile(v, sch)
		if band[x].w < p.pairs[x] {
			forwardBand(p.P[x], u, prof, ge, band[x])
			p.pairs[x] = band[x].w
		}
		rows := [2][]mat.Score{mat.GetScores(len(v) + 1), mat.GetScores(len(v) + 1)}
		suffixBand(p.P[x], u, prof, ge, band[x], th[x], rows)
		mat.PutScores(rows[0])
		mat.PutScores(rows[1])
		prof.release()
	})
}

// forwardBand fills f with the Forward lattice of (a, b), b given by its
// profile prof, inside band, which is not empty. Row i computes its band
// interval [lo, hi); its cell lo-1, and any cell of row i-1 that the
// recurrence reads outside that row's own interval, are set to NegInf
// first, so every cell the recurrence, a trace or a band scan reads holds
// a value. The band is closed under predecessors (the diagonal
// predecessor of a band cell has the same reach), so every band cell
// holds a real alignment's score.
func forwardBand(f *mat.Plane, a []int8, prof profile, ge mat.Score, band Band) {
	_, hi := band.Span(0)
	row0 := f.Row(0)
	row0[0] = 0
	for j := 1; j < hi; j++ {
		row0[j] = row0[j-1] + ge
	}
	sLo, sHi := 0, hi // the cells of the previous row that hold values
	for i := 1; i <= len(a); i++ {
		prev, cur := f.Row(i-1), f.Row(i)
		lo, hi := band.Span(i)
		from := max(lo, 1) - 1
		padRow(prev, from, hi, sLo, sHi)
		if lo == 0 {
			cur[0] = prev[0] + ge
		} else {
			cur[from] = mat.NegInf
		}
		forwardRow(prev[from:hi], cur[from:hi], prof.row(a[i-1])[from:hi-1], ge)
		sLo, sHi = from, hi
	}
}

// suffixBand runs the suffix recurrence of (a, b), b given by its profile
// prof, inside band, th's non-empty band, from row len(a) down to 0 on the
// two rolling rows rows, each len(b)+1 cells long, and adds each row's
// band interval into f, the pair's Forward plane, once the row is final.
// f is exact wherever T ≥ th: a row computes only the stretch between its
// first and last cell whose forward value plus the suffix's reach bound
// reaches th, and writes NegInf over the rest of its band interval. Like
// forwardBand it sets to NegInf the cell after that stretch and any cell
// of row u+1 it reads outside what that row holds.
func suffixBand(f *mat.Plane, a []int8, prof profile, ge mat.Score, band Band, th mat.Score, rows [2][]mat.Score) {
	n, m := len(a), prof.m
	r := band.r
	next := rows[n&1]
	lo, hi := band.Span(n)
	for v := lo; v < hi; v++ {
		next[v] = mat.Score(m-v) * ge
	}
	addRow(f.Row(n)[lo:hi], next[lo:hi])
	nLo, nHi := lo, hi // the cells of row u+1 that hold values
	for u := n - 1; u >= 0; u-- {
		cur := rows[u&1]
		lo, hi := band.Span(u)
		fu := f.Row(u)
		tLo, tHi := lo, hi
		for tLo < tHi && fu[tLo]+r.suffix(u, tLo) < th {
			tLo++
		}
		for tLo < tHi && fu[tHi-1]+r.suffix(u, tHi-1) < th {
			tHi--
		}
		end := tHi // the cell after the stretch, preset before the sweep
		if tLo < tHi {
			end = min(tHi, m)
			padRow(next, tLo, end+1, nLo, nHi)
			if tHi > m {
				cur[m] = next[m] + ge
			} else {
				cur[end] = mat.NegInf
			}
			backwardRow(next[tLo:end+1], cur[tLo:end+1], prof.row(a[u])[tLo:end], ge)
			end++
		}
		fillNegInf(cur[lo:tLo])
		fillNegInf(cur[end:max(end, hi)])
		addRow(fu[lo:hi], cur[lo:hi])
		next, nLo, nHi = cur, lo, max(end, hi)
	}
}

// addRow adds src into dst cell by cell.
func addRow(dst, src []mat.Score) {
	dst = dst[:len(src)]
	for v, s := range src {
		dst[v] += s
	}
}

// padRow sets to NegInf the cells of [from, to) outside [sLo, sHi), the
// cells of row that hold values.
func padRow(row []mat.Score, from, to, sLo, sHi int) {
	if sLo >= sHi {
		fillNegInf(row[from:to])
		return
	}
	fillNegInf(row[from:max(from, min(to, sLo))])
	fillNegInf(row[max(from, sHi):max(to, sHi)])
}

func fillNegInf(s []mat.Score) {
	for v := range s {
		s[v] = mat.NegInf
	}
}

// sweepPairs runs f(x) for each pair x in xs: on the caller when the
// phase's bands hold fewer than serialSweepCells cells, else one pair per
// goroutine on up to workers goroutines.
func sweepPairs(xs []int, cells, workers int, f func(x int)) {
	if cells < serialSweepCells {
		workers = 1
	}
	parallelFor(len(xs), workers, func(t int) { f(xs[t]) })
}

// pairOf returns the sequences of pair x (AB, AC or BC) of (a, b, c).
func pairOf(a, b, c []int8, x int) ([]int8, []int8) {
	switch x {
	case AB:
		return a, b
	case AC:
		return a, c
	}
	return b, c
}

// parallelFor runs f(0) … f(n-1) on up to workers goroutines.
func parallelFor(n, workers int, f func(t int)) {
	if workers <= 1 {
		for t := range n {
			f(t)
		}
		return
	}
	var (
		next atomic.Int32
		wg   sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1)) - 1; t < n; t = int(next.Add(1)) - 1 {
				f(t)
			}
		}()
	}
	wg.Wait()
}

// Optima returns each pair's unconstrained optimum, the last cell of its
// Forward plane, indexed like the planes.
func (p Planes) Optima() [3]mat.Score {
	var out [3]mat.Score
	for x, f := range p.P {
		out[x] = f.At(f.Rows()-1, f.Cols()-1)
	}
	return out
}

// Release returns the planes to the arena and clears them; nil entries
// are skipped, so releasing twice is safe.
func (p *Planes) Release() {
	for x := range p.P {
		mat.PutPlane(p.P[x])
		p.P[x] = nil
	}
}
