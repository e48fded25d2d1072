package core

import (
	"context"
	"testing"
)

// TestLongSequencesLinearSpace is the end-to-end "long sequences" scenario
// the linear-space algorithm exists for: a length-320 triple whose full
// lattice (≈132 MB) is aligned within a 16 MB lattice budget, and the
// score is cross-checked against the Carrillo–Lipman band.
func TestLongSequencesLinearSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("long-input integration test")
	}
	tr := relatedTriple(2026, 320, 0.1)
	lin, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{MaxBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	checkAlignment(t, lin, dnaSch)

	// Independent cross-check with a completely different strategy.
	band, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Score != band.Score {
		t.Fatalf("linear-space %d != bounded band %d", lin.Score, band.Score)
	}
	if need := FullMatrixBytes(tr); need < (16 << 20) {
		t.Fatalf("test misconfigured: full lattice %d fits the cap", need)
	}
}
