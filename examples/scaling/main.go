// Scaling: measure the blocked-wavefront parallel aligner across worker
// counts and print measured wall-clock time next to the simulated
// multi-processor speedup of the same schedule — the F1 figure in
// miniature. On a single-core host the measured column stays flat while
// the simulated column shows the scaling the schedule achieves with real
// processors.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/wavefront"
)

func main() {
	const n = 120
	g := repro.NewGenerator(repro.DNA, 99)
	tr := g.RelatedTriple(n, repro.MutationModel{SubstitutionRate: 0.3, InsertionRate: 0.02, DeletionRate: 0.02})

	fmt.Printf("n=%d, GOMAXPROCS=%d\n", n, runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s %-10s %-12s %-14s %s\n", "workers", "tile", "measured", "meas-speedup", "sim-speedup")
	workers := []int{1, 2, 4, 8}
	// One untimed run at the widest worker count first, so the 1-worker
	// row does not pay the cold start (worker-pool spawn, empty buffer
	// arena) and inflate every measured speedup after it.
	if _, err := repro.Align(tr, repro.Options{Algorithm: repro.AlgorithmParallel, Workers: workers[len(workers)-1]}); err != nil {
		log.Fatal(err)
	}
	var t1 time.Duration
	var sim1 float64
	for _, w := range workers {
		start := time.Now()
		res, err := repro.Align(tr, repro.Options{Algorithm: repro.AlgorithmParallel, Workers: w})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		// The planner picks a tile shape per worker count; simulate the
		// schedule of the tiles this run used.
		d := res.Plan.TileDims
		si := wavefront.Partition(tr.A.Len()+1, d[0])
		sj := wavefront.Partition(tr.B.Len()+1, d[1])
		sk := wavefront.Partition(tr.C.Len()+1, d[2])
		makespan := wavefront.Simulate(len(si), len(sj), len(sk), w, wavefront.SpanCost(si, sj, sk, 1))
		if w == 1 {
			t1, sim1 = elapsed, makespan
		}
		fmt.Printf("%-8d %-10s %-12s %-14.2f %.2f   (score %d)\n",
			w, fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]), elapsed.Round(time.Microsecond),
			float64(t1)/float64(elapsed), sim1/makespan, res.Score)
	}
}
