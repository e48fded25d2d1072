package repro

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/scoring"
)

// TestBandFirstMatchesParallel is the differential test of band-first
// automatic selection. Over random DNA and 55–99%-identity relatives of
// 128–300 residues (one random triple of 600), equal and unequal lengths,
// two linear DNA schemes and one and two workers, automatic alignment
// must return the score and moves of AlignParallel at one worker, and the
// Result must describe the kernel that ran: a kept band reports the
// PruneStats of an explicit run of that kernel and fits the plan's
// ceiling, and a fallback reports the dense kernel with the band cells
// that sent it there in the plan's trail. Related triples must keep the
// band and random ones must fall back, so both branches run.
func TestBandFirstMatchesParallel(t *testing.T) {
	alt, err := scoring.MatchMismatch(DNA, 1, -1, -2)
	if err != nil {
		t.Fatal(err)
	}
	type want int
	const (
		either want = iota
		band
		dense
	)
	g := NewGenerator(DNA, 2025)
	uniform := func(r float64) MutationModel {
		return MutationModel{SubstitutionRate: r, InsertionRate: r / 4, DeletionRate: r / 4}
	}
	random := func(na, nb, nc int) Triple {
		return Triple{A: g.Random("A", na), B: g.Random("B", nb), C: g.Random("C", nc)}
	}
	cases := []struct {
		name string
		tr   Triple
		want want
	}{
		{"random-128", random(128, 128, 128), dense},
		{"random-300", random(300, 300, 300), dense},
		{"random-unequal", random(300, 200, 250), dense},
		{"random-600", random(600, 600, 600), dense},
		{"id55-300", g.RelatedTriple(300, uniform(0.26)), either},
		{"id70-300", g.TripleWithLengths(300, 300, 300, uniform(0.16)), band},
		{"id80-200", g.RelatedTriple(200, uniform(0.1)), band},
		{"id90-128", g.TripleWithLengths(128, 128, 128, uniform(0.05)), band},
		{"id99-300", g.RelatedTriple(300, uniform(0.005)), band},
		{"unequal-id90", g.TripleWithLengths(300, 285, 270, uniform(0.05)), band},
		{"truncated-id80", g.TripleWithLengths(300, 240, 180, uniform(0.1)), either},
	}
	kept, fellBack := 0, 0
	for _, c := range cases {
		for _, sch := range []*Scheme{nil, alt} {
			if sch != nil && c.tr.A.Len() > 300 {
				continue // one 600-residue run is enough
			}
			name := c.name + "/default"
			if sch != nil {
				name = c.name + "/" + sch.Name()
			}
			ref, err := Align(c.tr, Options{Algorithm: AlgorithmParallel, Scheme: sch, Workers: 1})
			if err != nil {
				t.Fatalf("%s: parallel: %v", name, err)
			}
			for _, workers := range []int{1, 2} {
				tag := fmt.Sprintf("%s/workers=%d", name, workers)
				opt := Options{Scheme: sch, Workers: workers}
				planned, err := PlanAlign(c.tr, opt)
				if err != nil {
					t.Fatalf("%s: plan: %v", tag, err)
				}
				if planned.Algorithm != "bounded" || planned.Fallback != "parallel" || planned.MaxBandCells == 0 {
					t.Fatalf("%s: planned %s (fallback %q, ceiling %d), want bounded in front of parallel",
						tag, planned.Algorithm, planned.Fallback, planned.MaxBandCells)
				}
				res, err := Align(c.tr, opt)
				if err != nil {
					t.Fatalf("%s: auto: %v", tag, err)
				}
				if res.Score != ref.Score || !slices.Equal(res.Moves, ref.Moves) {
					t.Fatalf("%s: auto (%s) scored %d, parallel at one worker %d, or the moves differ",
						tag, res.Algorithm, res.Score, ref.Score)
				}
				// Only a kept band's plan still names its fallback.
				if string(res.Algorithm) != res.Plan.Algorithm || (res.Plan.Fallback != "") != (res.Algorithm == AlgorithmBounded) {
					t.Fatalf("%s: ran %s, result plan says %s (fallback %q)", tag, res.Algorithm, res.Plan.Algorithm, res.Plan.Fallback)
				}
				trail := res.Plan.Downgrades
				switch res.Algorithm {
				case AlgorithmBounded, AlgorithmAStar:
					kept++
					if c.want == dense {
						t.Errorf("%s: kept a band (%+v), want the dense fallback", tag, res.Prune)
					}
					explicit, err := Align(c.tr, Options{Algorithm: res.Algorithm, Scheme: sch, Workers: workers})
					if err != nil {
						t.Fatalf("%s: explicit %s: %v", tag, res.Algorithm, err)
					}
					if res.Prune == nil || *res.Prune != *explicit.Prune {
						t.Fatalf("%s: band-first %s PruneStats %+v, explicit run %+v", tag, res.Algorithm, res.Prune, explicit.Prune)
					}
					if res.Algorithm == AlgorithmBounded {
						if len(trail) != 0 || uint64(res.Prune.EvaluatedCells) > planned.MaxBandCells {
							t.Fatalf("%s: kept a %d-cell band over the %d ceiling (trail %+v)",
								tag, res.Prune.EvaluatedCells, planned.MaxBandCells, trail)
						}
						break
					}
					// A* runs on a one-worker band counted thin enough.
					if workers != 1 || len(trail) != 1 {
						t.Fatalf("%s: A* at %d workers, trail %+v", tag, workers, trail)
					}
					d := trail[0]
					frac := float64(d.BandCells) / float64(res.Prune.TotalCells)
					if d.From != "bounded" || d.To != "astar" || d.BandCells > planned.MaxBandCells || frac > plan.AStarFractionMax {
						t.Fatalf("%s: A* switch %+v (band fraction %g) under a %d-cell ceiling", tag, d, frac, planned.MaxBandCells)
					}
				case AlgorithmParallel:
					fellBack++
					if c.want == band {
						t.Errorf("%s: fell back to the dense fill (trail %+v), want the band", tag, trail)
					}
					if res.Prune != nil || len(trail) != 1 {
						t.Fatalf("%s: dense fallback with PruneStats %+v and trail %+v", tag, res.Prune, trail)
					}
					if d := trail[0]; d.From != "bounded" || d.To != "parallel" || d.BandCells <= planned.MaxBandCells {
						t.Fatalf("%s: fallback step %+v under a %d-cell ceiling", tag, d, planned.MaxBandCells)
					}
				default:
					t.Fatalf("%s: auto ran %s", tag, res.Algorithm)
				}
			}
		}
	}
	if kept == 0 || fellBack == 0 {
		t.Fatalf("band kept %d times, dense fallback %d times: both branches must run", kept, fellBack)
	}
}
