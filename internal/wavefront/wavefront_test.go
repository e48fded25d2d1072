package wavefront

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPartition(t *testing.T) {
	cases := []struct {
		n, b  int
		spans []Span
	}{
		{0, 4, nil},
		{3, 4, []Span{{0, 3}}},
		{4, 4, []Span{{0, 4}}},
		{10, 4, []Span{{0, 4}, {4, 8}, {8, 10}}},
		{1, 1, []Span{{0, 1}}},
	}
	for _, c := range cases {
		got := Partition(c.n, c.b)
		if len(got) != len(c.spans) {
			t.Fatalf("Partition(%d,%d) = %v, want %v", c.n, c.b, got, c.spans)
		}
		for i := range got {
			if got[i] != c.spans[i] {
				t.Fatalf("Partition(%d,%d)[%d] = %v, want %v", c.n, c.b, i, got[i], c.spans[i])
			}
		}
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	f := func(n, b uint8) bool {
		nn, bb := int(n)%200, int(b)%32+1
		spans := Partition(nn, bb)
		covered := 0
		prev := 0
		for _, s := range spans {
			if s.Lo != prev || s.Hi <= s.Lo || s.Len() > bb {
				return false
			}
			covered += s.Len()
			prev = s.Hi
		}
		return covered == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionPanics(t *testing.T) {
	for _, c := range []struct{ n, b int }{{-1, 4}, {4, 0}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(%d,%d) did not panic", c.n, c.b)
				}
			}()
			Partition(c.n, c.b)
		}()
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

// TestRun3DVisitsAllOnce checks each block runs exactly once.
func TestRun3DVisitsAllOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const ni, nj, nk = 5, 4, 3
		var counts [ni][nj][nk]int32
		Run3D(ni, nj, nk, workers, func(bi, bj, bk int) {
			atomic.AddInt32(&counts[bi][bj][bk], 1)
		})
		for i := 0; i < ni; i++ {
			for j := 0; j < nj; j++ {
				for k := 0; k < nk; k++ {
					if counts[i][j][k] != 1 {
						t.Fatalf("workers=%d: block (%d,%d,%d) ran %d times", workers, i, j, k, counts[i][j][k])
					}
				}
			}
		}
	}
}

// TestRun3DDependencyOrder records completion stamps and verifies that
// every block's axis predecessors completed strictly before it started.
func TestRun3DDependencyOrder(t *testing.T) {
	const ni, nj, nk = 6, 5, 4
	var clock atomic.Int64
	var mu sync.Mutex
	started := map[[3]int]int64{}
	finished := map[[3]int]int64{}
	Run3D(ni, nj, nk, 8, func(bi, bj, bk int) {
		s := clock.Add(1)
		mu.Lock()
		started[[3]int{bi, bj, bk}] = s
		mu.Unlock()
		f := clock.Add(1)
		mu.Lock()
		finished[[3]int{bi, bj, bk}] = f
		mu.Unlock()
	})
	check := func(pred, succ [3]int) {
		if finished[pred] >= started[succ] {
			t.Fatalf("block %v (finished %d) did not precede %v (started %d)",
				pred, finished[pred], succ, started[succ])
		}
	}
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			for k := 0; k < nk; k++ {
				b := [3]int{i, j, k}
				if i > 0 {
					check([3]int{i - 1, j, k}, b)
				}
				if j > 0 {
					check([3]int{i, j - 1, k}, b)
				}
				if k > 0 {
					check([3]int{i, j, k - 1}, b)
				}
			}
		}
	}
}

// TestRun3DComputesPrefixSums runs an actual dependent computation: each
// block writes cell value = 3D prefix-sum recurrence, reading neighbor
// cells written by predecessor blocks. Any missing happens-before edge
// shows up as a wrong value (and as a race under -race).
func TestRun3DComputesPrefixSums(t *testing.T) {
	const n = 24
	grid := make([]int64, n*n*n)
	at := func(i, j, k int) int64 {
		if i < 0 || j < 0 || k < 0 {
			return 0
		}
		return grid[(i*n+j)*n+k]
	}
	spans := Partition(n, 5)
	Run3D(len(spans), len(spans), len(spans), 8, func(bi, bj, bk int) {
		for i := spans[bi].Lo; i < spans[bi].Hi; i++ {
			for j := spans[bj].Lo; j < spans[bj].Hi; j++ {
				for k := spans[bk].Lo; k < spans[bk].Hi; k++ {
					// Inclusion-exclusion prefix-sum recurrence with +1 per cell.
					v := at(i-1, j, k) + at(i, j-1, k) + at(i, j, k-1) -
						at(i-1, j-1, k) - at(i-1, j, k-1) - at(i, j-1, k-1) +
						at(i-1, j-1, k-1) + 1
					grid[(i*n+j)*n+k] = v
				}
			}
		}
	})
	// The prefix-sum of the all-ones tensor is (i+1)(j+1)(k+1).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				want := int64(i+1) * int64(j+1) * int64(k+1)
				if got := at(i, j, k); got != want {
					t.Fatalf("cell (%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
			}
		}
	}
}

func TestRun3DEmptyGrid(t *testing.T) {
	ran := false
	Run3D(0, 5, 5, 4, func(bi, bj, bk int) { ran = true })
	if ran {
		t.Fatal("fn ran on empty grid")
	}
}

func TestRun3DSingleBlock(t *testing.T) {
	n := 0
	Run3D(1, 1, 1, 16, func(bi, bj, bk int) { n++ })
	if n != 1 {
		t.Fatalf("single block ran %d times", n)
	}
}

func TestRun2D(t *testing.T) {
	const ni, nj = 7, 9
	var counts [ni][nj]int32
	var clock atomic.Int64
	stamp := [ni][nj]int64{}
	var mu sync.Mutex
	err := Run2DContext(context.Background(), ni, nj, 4, func(bi, bj int) {
		atomic.AddInt32(&counts[bi][bj], 1)
		s := clock.Add(1)
		mu.Lock()
		stamp[bi][bj] = s
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			if counts[i][j] != 1 {
				t.Fatalf("block (%d,%d) ran %d times", i, j, counts[i][j])
			}
			if i > 0 && stamp[i-1][j] >= stamp[i][j] {
				t.Fatalf("(%d,%d) ran before predecessor", i, j)
			}
			if j > 0 && stamp[i][j-1] >= stamp[i][j] {
				t.Fatalf("(%d,%d) ran before predecessor", i, j)
			}
		}
	}
}

func TestRun3DManyWorkersFewBlocks(t *testing.T) {
	// More workers than blocks must not deadlock or double-run.
	var n atomic.Int32
	Run3D(2, 1, 1, 64, func(bi, bj, bk int) { n.Add(1) })
	if n.Load() != 2 {
		t.Fatalf("ran %d blocks, want 2", n.Load())
	}
}
