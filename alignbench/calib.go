package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Host-speed calibration. The benchmark runs on a few cores of a shared
// host, and how fast those cores run changes from minute to minute with
// what other guests do on their sibling threads and caches: on a 2-core
// Xeon VM, align-large-closed p50 read 15 ms in some runs and 22 ms in
// others of the same code. So a run measures a fixed reference computation,
// the benchmark's own code and independent of the program, between its
// measurement windows while alignd is idle, and scales its timings by the
// median over those bursts of how much slower or faster than on the
// reference host the reference ran. The result reads as the timing on the
// reference host; the raw figures are printed next to it.

// calibLen is the side of the reference DP matrix: 768² int32 cells, 2.3 MiB
// per thread, more than a core's L2, so the reference is held back by the
// same caches and memory the lattice kernels use.
const calibLen = 768

// calibCalls is how many DP fills each thread does per burst.
const calibCalls = 24

// calibPerGap is how many bursts run in each pause between windows.
const calibPerGap = 3

// calibThreads matches the cores alignd's kernels use on the reference host.
const calibThreads = 2

// Reference burst times on a 2-core Intel Xeon VM (AVX2, go1.24) at rest:
// the wall time of one burst and the CPU time its threads used together.
const (
	calibWallRef = 52 * time.Millisecond
	calibCPURef  = 93 * time.Millisecond
)

// calibration is one burst's measured times: the mean time a thread took
// from the common start to its own finish, and the CPU time the threads
// used together. The mean, not the last finish, so that time the
// hypervisor takes from one core counts once, as it does for alignd's
// work, not as a stall of the whole burst.
type calibration struct {
	wall, cpu time.Duration
}

// wallFactor and cpuFactor are how many times slower than the reference
// host this burst ran.
func (c calibration) wallFactor() float64 { return float64(c.wall) / float64(calibWallRef) }
func (c calibration) cpuFactor() float64  { return float64(c.cpu) / float64(calibCPURef) }

// calibFactors returns the median wall and CPU factors of a run's bursts.
func calibFactors(cals []calibration) (wall, cpu float64) {
	walls, cpus := make([]float64, len(cals)), make([]float64, len(cals))
	for i, c := range cals {
		walls[i], cpus[i] = c.wallFactor(), c.cpuFactor()
	}
	return median(walls), median(cpus)
}

var calibSeqs = func() [2][]int8 {
	var s [2][]int8
	x := uint32(12345)
	for k := range s {
		s[k] = make([]int8, calibLen)
		for i := range s[k] {
			x = x*1664525 + 1013904223
			s[k][i] = int8(x >> 30)
		}
	}
	return s
}()

// calibrateGap appends one pause's bursts to cals.
func calibrateGap(cals []calibration) []calibration {
	for i := 0; i < calibPerGap; i++ {
		cals = append(cals, calibrate())
	}
	return cals
}

// calibrate runs one burst: calibThreads threads each fill calibCalls
// reference matrices.
func calibrate() calibration {
	var wg sync.WaitGroup
	cpus := make([]time.Duration, calibThreads)
	walls := make([]time.Duration, calibThreads)
	start := time.Now()
	for t := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			m := make([]int32, (calibLen+1)*(calibLen+1))
			c0 := threadCPU()
			for i := 0; i < calibCalls; i++ {
				calibSink[t] += calibFill(m, calibSeqs[0], calibSeqs[1])
			}
			cpus[t], walls[t] = threadCPU()-c0, time.Since(start)
		}()
	}
	wg.Wait()
	var c calibration
	for t := range cpus {
		c.wall += walls[t] / calibThreads
		c.cpu += cpus[t]
	}
	return c
}

// calibSink keeps the fills from being optimised away.
var calibSink [calibThreads]int32

// calibFill is a global linear-gap alignment score over a full matrix.
func calibFill(m []int32, a, b []int8) int32 {
	const gap, match, mismatch = -2, 1, -1
	w := len(b) + 1
	for j := 0; j < w; j++ {
		m[j] = int32(j) * gap
	}
	for i := 1; i <= len(a); i++ {
		row, prev := m[i*w:(i+1)*w], m[(i-1)*w:i*w]
		row[0] = int32(i) * gap
		ai := a[i-1]
		for j := 1; j < w; j++ {
			s := prev[j-1] + mismatch
			if b[j-1] == ai {
				s = prev[j-1] + match
			}
			s = max(s, prev[j]+gap, row[j-1]+gap)
			row[j] = s
		}
	}
	return m[len(a)*w+len(b)]
}

// threadCPU returns the calling OS thread's user+sys CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
