package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// streamBytes serializes a workload's whole request stream: every body in
// send order, warm-up and priming included.
func streamBytes(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	s := w.build(seed, n)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, reqs := range [][]request{s.warm, s.prime, s.measured} {
		for _, r := range reqs {
			var body any = s.alignRequest(r.input)
			if w.msa {
				body = s.msaRequest(r.input)
			}
			if err := enc.Encode(map[string]any{"kind": s.inputs[r.input].kind, "body": body}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := w.requestCount(2)
			a := streamBytes(t, w, 7, n)
			if b := streamBytes(t, w, 7, n); !bytes.Equal(a, b) {
				t.Fatal("same seed gave different request streams")
			}
			if c := streamBytes(t, w, 8, n); bytes.Equal(a, c) {
				t.Fatal("different seeds gave the same request stream")
			}
		})
	}
}

func TestRequestCountFixedBySeconds(t *testing.T) {
	for _, w := range workloads {
		n := max(w.requestCount(10), minMeasured)
		if got := len(w.build(3, n).measured); got != n {
			t.Errorf("%s: %d measured requests, want %d", w.name, got, n)
		}
	}
}

func TestRepeatCachedShares(t *testing.T) {
	w, err := workloadByName("align-repeat-cached")
	if err != nil {
		t.Fatal(err)
	}
	s := w.build(1, 1000)
	counts := map[string]int{}
	for _, r := range s.measured {
		counts[s.inputs[r.input].kind]++
	}
	if counts["pool"] != 700 || counts["near-dup"] != 150 || counts["fresh"] != 150 {
		t.Fatalf("request mix %v, want pool=700 near-dup=150 fresh=150", counts)
	}
	seen := map[int]bool{}
	for _, r := range s.measured {
		kind := s.inputs[r.input].kind
		if kind != "pool" && seen[r.input] {
			t.Fatalf("%s input %d sent twice; it would hit the cache", kind, r.input)
		}
		seen[r.input] = true
	}
}

func TestEvenLengthsSpanRange(t *testing.T) {
	var got []int
	for i := 0; i < 5; i++ {
		got = append(got, evenLength(i, 5, 64, 128))
	}
	want := []int{64, 80, 96, 112, 128}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lengths %v, want %v", got, want)
		}
	}
	if n := evenLength(0, 1, 290, 310); n != 300 {
		t.Fatalf("single length %d, want 300", n)
	}
}
