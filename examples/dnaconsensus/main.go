// DNA consensus: align three homologous DNA sequences (three descendants of
// a common ancestor, the paper's motivating workload), then derive a
// majority consensus and per-column conservation from the optimal
// alignment. Exercises the Carrillo–Lipman bounded exact aligner and the
// alignment statistics API.
//
//	go run ./examples/dnaconsensus
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	repro "repro"
)

func main() {
	// A reproducible workload: ~85% identity descendants of one ancestor.
	g := repro.NewGenerator(repro.DNA, 2007)
	tr := g.RelatedTriple(90, repro.MutationModel{
		SubstitutionRate: 0.12,
		InsertionRate:    0.03,
		DeletionRate:     0.03,
	})

	res, err := repro.Align(tr, repro.Options{Algorithm: repro.AlgorithmBounded})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("optimal SP score %d in %s", res.Score, res.Elapsed)
	if res.Prune != nil {
		fmt.Printf(" — Carrillo-Lipman evaluated %.1f%% of the lattice",
			100*res.Prune.Fraction())
	}
	fmt.Print("\n\n")
	if err := res.Format(os.Stdout, 60); err != nil {
		log.Fatal(err)
	}

	consensus := res.Consensus()
	conserved := strings.Count(res.Conservation(), "*")
	st := res.ComputeStats()
	fmt.Printf("\nconsensus (%d bp): %s\n", len(consensus), consensus)
	fmt.Printf("fully conserved columns: %d/%d (%.1f%%), mean pairwise identity %.1f%%\n",
		conserved, st.Columns, 100*float64(conserved)/float64(st.Columns), 100*st.PairIdentity)
}
