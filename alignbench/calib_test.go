package main

import (
	"testing"
	"time"
)

// TestCalibFill checks the reference DP against hand-computed global
// alignment scores (match 1, mismatch −1, gap −2).
func TestCalibFill(t *testing.T) {
	cases := []struct {
		a, b []int8
		want int32
	}{
		{[]int8{0, 1, 2, 3}, []int8{0, 1, 2, 3}, 4},
		{[]int8{0, 1, 2, 3}, []int8{0, 1, 3, 3}, 2},
		{[]int8{0, 1, 2, 3}, []int8{0, 1, 3}, 1},
		{[]int8{0}, []int8{}, -2},
	}
	for _, c := range cases {
		m := make([]int32, (len(c.a)+1)*(len(c.b)+1))
		if got := calibFill(m, c.a, c.b); got != c.want {
			t.Errorf("calibFill(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCalibFactors checks that a run's factors are the medians of its
// bursts relative to the reference times.
func TestCalibFactors(t *testing.T) {
	cals := []calibration{
		{wall: calibWallRef, cpu: 2 * calibCPURef},
		{wall: 3 * calibWallRef, cpu: calibCPURef / 2},
		{wall: 2 * calibWallRef, cpu: calibCPURef},
	}
	wall, cpu := calibFactors(cals)
	if wall != 2 || cpu != 1 {
		t.Errorf("calibFactors = %v, %v; want 2, 1", wall, cpu)
	}
	if c := calibrate(); c.wall <= 0 || c.cpu <= 0 || c.wall > time.Minute {
		t.Errorf("calibrate() = %+v", c)
	}
}
