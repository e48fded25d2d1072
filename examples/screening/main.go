// Screening: given a reference pair of homologous sequences, rank a set of
// candidate third sequences by their optimal three-way SP score — a
// throughput workload for AlignBatch. Candidates closer to the reference
// family score higher; the ranking separates true relatives from decoys.
//
//	go run ./examples/screening
package main

import (
	"fmt"
	"log"
	"sort"

	repro "repro"
)

func main() {
	g := repro.NewGenerator(repro.DNA, 424242)

	// The reference family: two known homologs of a common ancestor.
	ancestor := g.Random("ancestor", 80)
	mild := repro.MutationModel{SubstitutionRate: 0.08, InsertionRate: 0.02, DeletionRate: 0.02}
	refA := g.Mutate("refA", ancestor, mild)
	refB := g.Mutate("refB", ancestor, mild)

	// Candidates: four true relatives at increasing divergence and four
	// unrelated decoys.
	type candidate struct {
		name string
		seq  *repro.Sequence
		kind string
	}
	var cands []candidate
	for i, rate := range []float64{0.05, 0.15, 0.30, 0.50} {
		m := repro.MutationModel{SubstitutionRate: rate, InsertionRate: rate / 4, DeletionRate: rate / 4}
		cands = append(cands, candidate{
			name: fmt.Sprintf("relative-%d", i+1),
			seq:  g.Mutate(fmt.Sprintf("relative-%d", i+1), ancestor, m),
			kind: "relative",
		})
	}
	for i := 0; i < 4; i++ {
		cands = append(cands, candidate{
			name: fmt.Sprintf("decoy-%d", i+1),
			seq:  g.Random(fmt.Sprintf("decoy-%d", i+1), 80),
			kind: "decoy",
		})
	}

	// Stage 1 — alignment-free prefilter: k-mer distance to the reference
	// pair. This is how real screening pipelines avoid spending the O(n³)
	// exact aligner on hopeless candidates.
	fmt.Printf("screening %d candidates against reference pair (%d bp ancestor)\n\n", len(cands), ancestor.Len())
	fmt.Println("stage 1: k-mer prefilter (k=5, mean distance to refA/refB; lower is closer)")
	type pre struct {
		idx  int
		dist float64
	}
	pres := make([]pre, len(cands))
	for i, c := range cands {
		d := (repro.KmerDistance(refA, c.seq, 5) + repro.KmerDistance(refB, c.seq, 5)) / 2
		pres[i] = pre{i, d}
	}
	sort.Slice(pres, func(i, j int) bool { return pres[i].dist < pres[j].dist })
	for _, p := range pres {
		fmt.Printf("  %-12s %-10s %.3f\n", cands[p.idx].name, cands[p.idx].kind, p.dist)
	}

	// Stage 2 — exact three-way alignment of every candidate (the batch
	// API; in a larger pipeline only the prefilter survivors would go on).
	triples := make([]repro.Triple, len(cands))
	for i, c := range cands {
		triples[i] = repro.Triple{A: refA, B: refB, C: c.seq}
	}
	results := repro.AlignBatch(triples, repro.Options{Algorithm: repro.AlgorithmBounded})

	type row struct {
		name, kind string
		score      int32
	}
	rows := make([]row, 0, len(results))
	for i, r := range results {
		if r.Err != nil {
			log.Fatalf("%s: %v", cands[i].name, r.Err)
		}
		rows = append(rows, row{cands[i].name, cands[i].kind, r.Result.Score})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].score > rows[j].score })

	fmt.Printf("\nstage 2: exact optimal SP score (higher is closer)\n")
	fmt.Printf("%-4s %-12s %-10s %s\n", "rank", "candidate", "kind", "optimal SP score")
	for i, r := range rows {
		fmt.Printf("%-4d %-12s %-10s %d\n", i+1, r.name, r.kind, r.score)
	}
}
