package main

import (
	"math"
	"sort"
	"time"
)

// minMeasured is the smallest measured request count of any run: with
// nearest-rank percentiles it leaves at least ten samples beyond p90.
const minMeasured = 100

// maxWindows caps how many windows a run's latency and throughput are
// split into.
const maxWindows = 10

// windows splits n samples into consecutive [lo, hi) ranges of at least
// minMeasured samples each (one range when n < 2·minMeasured), at most
// maxWindows of them.
func windows(n int) [][2]int {
	k := max(1, min(n/minMeasured, maxWindows))
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// values, which it sorts.
func percentile(values []float64, p float64) float64 {
	sort.Float64s(values)
	return values[rank(len(values), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// beyond is the number of samples strictly after the p-th percentile's
// rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// median returns the middle value of values (mean of the two middle ones
// for an even count), sorting them.
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with the
// default exclusive method.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	var out [3]float64
	if n == 1 {
		return [3]float64{data[0], data[0], data[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
