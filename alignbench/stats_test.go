package main

import (
	"math"
	"testing"

	"repro/internal/seq"
)

// TestPercentileLeavesTenBeyond pins the reporting rule: every run has at
// least minMeasured requests, so at least ten samples lie beyond p90.
func TestPercentileLeavesTenBeyond(t *testing.T) {
	for n := minMeasured; n <= 5000; n++ {
		if b := beyond(n, 90); b < 10 {
			t.Fatalf("n=%d: %d samples beyond p90, want ≥10", n, b)
		}
	}
	if b := beyond(minMeasured-1, 90); b >= 10 {
		t.Fatalf("n=%d: %d beyond p90; minMeasured is larger than it needs to be", minMeasured-1, b)
	}
	for _, w := range workloads {
		if n := max(w.requestCount(1), minMeasured); beyond(n, 90) < 10 {
			t.Errorf("%s: 1-second run has %d beyond p90", w.name, beyond(n, 90))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(v, 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(v, 50); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([3,1,2], n=4)
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		// statistics.quantiles([1,2,3,4,5], n=4)
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestSPScoreAffine(t *testing.T) {
	// Two rows, BLOSUM62 (open -11, extend -1): A/A = 4, then a 2-column
	// gap run in row 1 costs -11 - 2, then W/W = 11.
	v := newVerifier(&stream{}, true)
	got := spScore([]string{"AGGW", "A--W"}, v.sch)
	if want := int64(4 - 13 + 11); got != want {
		t.Fatalf("spScore = %d, want %d", got, want)
	}
	// A gap-gap column does not break the run.
	got = spScore([]string{"AG-GW", "A---W", "AGCGW"}, v.sch)
	pair01 := int64(4 - 13 + 11)
	pair02 := int64(4 + 6 - 11 - 1 + 6 + 11) // A/A, G/G, gap C, G/G, W/W
	pair12 := int64(4 - 11 - 3 + 11)         // A/A, three-column run, W/W
	if want := pair01 + pair02 + pair12; got != want {
		t.Fatalf("spScore = %d, want %d", got, want)
	}
}

// TestPairOptimumBruteForce checks the benchmark's own pairwise optimum,
// which the MSA upper bound is built from, against the best spScore over
// every alignment of short protein pairs.
func TestPairOptimumBruteForce(t *testing.T) {
	v := newVerifier(&stream{}, true)
	g := newGen(1, "pair-optimum", proteinLetters)
	for trial := 0; trial < 60; trial++ {
		a, b := string(g.random(1+trial%5)), string(g.random(1+trial/12))
		best := int64(math.MinInt64)
		var walk func(i, j int, ra, rb string)
		walk = func(i, j int, ra, rb string) {
			if i == len(a) && j == len(b) {
				best = max(best, spScore([]string{ra, rb}, v.sch))
				return
			}
			if i < len(a) && j < len(b) {
				walk(i+1, j+1, ra+a[i:i+1], rb+b[j:j+1])
			}
			if i < len(a) {
				walk(i+1, j, ra+a[i:i+1], rb+"-")
			}
			if j < len(b) {
				walk(i, j+1, ra+"-", rb+b[j:j+1])
			}
		}
		walk(0, 0, "", "")
		ca, cb := encode(t, v, a), encode(t, v, b)
		if got := pairOptimum(ca, cb, v.sch); got != best {
			t.Fatalf("pairOptimum(%s, %s) = %d, brute force %d", a, b, got, best)
		}
	}
}

func encode(t *testing.T, v *verifier, s string) []int8 {
	t.Helper()
	sq, err := seq.New("s", []byte(s), v.sch.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	return sq.Codes()
}

func TestCheckRows(t *testing.T) {
	in := []string{"ACGT", "AGT", "ACT"}
	if err := checkRows([]string{"ACGT", "A-GT", "AC-T"}, in); err != nil {
		t.Fatal(err)
	}
	if err := checkRows([]string{"ACGT", "A-GA", "AC-T"}, in); err == nil {
		t.Fatal("accepted a row that does not degap to its input")
	}
	if err := checkRows([]string{"ACGT-", "A-GT-", "AC-T-"}, in); err == nil {
		t.Fatal("accepted an all-gap column")
	}
}

func TestWindowsKeepTenBeyondP90(t *testing.T) {
	for n := minMeasured; n <= 5000; n++ {
		wins := windows(n)
		if len(wins) > maxWindows || wins[0][0] != 0 || wins[len(wins)-1][1] != n {
			t.Fatalf("n=%d: windows %v do not cover the run", n, wins)
		}
		for _, w := range wins {
			if b := beyond(w[1]-w[0], 90); b < 10 {
				t.Fatalf("n=%d: window %v has %d beyond p90", n, w, b)
			}
		}
	}
}
