package mat

import (
	"runtime"
	"testing"
	"time"
)

func TestSizeClass(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1023, 9}, {1024, 10},
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.want {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetScoresRoundTrip(t *testing.T) {
	s := GetScores(100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	for i := range s {
		s[i] = Score(i)
	}
	PutScores(s)
	// A fresh Get of the same class must have the requested length even if
	// it reuses the dirtied buffer; contents are unspecified by contract.
	r := GetScores(80)
	if len(r) != 80 {
		t.Fatalf("len = %d, want 80", len(r))
	}
	PutScores(r)

	if s := GetScores(0); s != nil {
		t.Fatalf("GetScores(0) = %v, want nil", s)
	}
	if s := GetScores(-3); s != nil {
		t.Fatalf("GetScores(-3) = %v, want nil", s)
	}
	PutScores(nil) // must not panic
}

func TestGetScoresRejectsTooSmallPooled(t *testing.T) {
	// 65 and 100 share size class 6, but a pooled 65-cap buffer must not be
	// handed out for a 100-element request.
	small := make([]Score, 65)
	PutScores(small)
	big := GetScores(100)
	if len(big) != 100 || cap(big) < 100 {
		t.Fatalf("len=%d cap=%d, want len=100 cap>=100", len(big), cap(big))
	}
	PutScores(big)
}

func TestGetPlaneDimensions(t *testing.T) {
	p := GetPlane(7, 11)
	if p.Rows() != 7 || p.Cols() != 11 {
		t.Fatalf("dims = %dx%d, want 7x11", p.Rows(), p.Cols())
	}
	p.Fill(3)
	if p.At(6, 10) != 3 {
		t.Fatalf("Fill did not reach last cell")
	}
	PutPlane(p)
	// Reuse must re-shape, not inherit the old geometry.
	q := GetPlane(2, 3)
	if q.Rows() != 2 || q.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", q.Rows(), q.Cols())
	}
	PutPlane(q)
	PutPlane(nil) // must not panic
}

func TestGetTensor3Dimensions(t *testing.T) {
	tr := GetTensor3(3, 4, 5)
	ni, nj, nk := tr.Dims()
	if ni != 3 || nj != 4 || nk != 5 {
		t.Fatalf("dims = %dx%dx%d, want 3x4x5", ni, nj, nk)
	}
	tr.Fill(NegInf)
	tr.Set(2, 3, 4, 9)
	if tr.At(2, 3, 4) != 9 || tr.At(0, 0, 0) != NegInf {
		t.Fatalf("tensor indexing broken after pooled Get")
	}
	PutTensor3(tr)
	s := GetTensor3(1, 1, 1)
	if ni, nj, nk := s.Dims(); ni != 1 || nj != 1 || nk != 1 {
		t.Fatalf("dims = %dx%dx%d, want 1x1x1", ni, nj, nk)
	}
	PutTensor3(s)
	PutTensor3(nil) // must not panic
}

// TestPooledBuffersAreDirty pins the documented contract: pooled memory has
// unspecified contents, so kernels must write before reading.
func TestPooledBuffersAreDirty(t *testing.T) {
	p := GetPlane(4, 4)
	p.Fill(42)
	PutPlane(p)
	q := GetPlane(4, 4)
	defer PutPlane(q)
	// q may or may not alias p's old buffer; either way using it without
	// initialization would be a kernel bug. Just assert the shape is sound.
	if len(q.Row(3)) != 4 {
		t.Fatalf("row length = %d, want 4", len(q.Row(3)))
	}
}

func BenchmarkGetPutPlane(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := GetPlane(129, 129)
		p.Row(0)[0] = 1
		PutPlane(p)
	}
}

func BenchmarkNewPlane(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPlane(129, 129)
		p.Row(0)[0] = 1
	}
}

// BenchmarkFill compares the doubling-copy fill (Plane.Fill) against a
// plain element loop, the pre-optimization idiom.
func BenchmarkFill(b *testing.B) {
	p := NewPlane(512, 512)
	b.Run("doubling-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Fill(NegInf)
		}
		b.SetBytes(int64(512*512) * 4)
	})
	b.Run("element-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range p.data {
				p.data[j] = NegInf
			}
		}
		b.SetBytes(int64(512*512) * 4)
	})
}

// resetShared empties one shared class so a test starts from a known list.
func resetShared(w, c int) {
	sc := &sharedCells[w][c]
	sc.mu.Lock()
	sc.bufs = nil
	sc.mu.Unlock()
}

func sharedLen(w, c int) int {
	sc := &sharedCells[w][c]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.bufs)
}

// TestSharedClassCrossGoroutine: a lattice-sized buffer returned by one
// goroutine is the one the next Get hands out, whichever P either ran on.
// A per-P sync.Pool slot cannot promise that.
func TestSharedClassCrossGoroutine(t *testing.T) {
	resetShared(pool16, shareClass)
	n := 1<<shareClass + 5
	for trial := 0; trial < 8; trial++ {
		s := GetCells[int16](n)
		want := &s[0]
		done := make(chan struct{})
		go func() {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			PutCells(s)
			close(done)
		}()
		<-done
		r := GetCells[int16](n)
		if &r[0] != want {
			t.Fatalf("trial %d: Get allocated a new buffer instead of reusing the one another goroutine returned", trial)
		}
		PutCells(r)
	}
}

// TestSharedClassKeepsTooSmall: a listed buffer too small for a request
// stays listed for a later smaller request instead of being dropped, and
// Get picks the smallest buffer that fits.
func TestSharedClassKeepsTooSmall(t *testing.T) {
	// The class must hold two buffers for the best-fit check below.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	resetShared(pool32, shareClass)
	base := 1 << shareClass
	small := make([]int32, base+10)
	PutCells(small)
	big := GetCells[int32](base + 1000)
	if &big[0] == &small[0] {
		t.Fatal("a too-small buffer was handed out")
	}
	again := GetCells[int32](base)
	if &again[0] != &small[0] {
		t.Fatal("the too-small buffer was dropped; a smaller request allocated again")
	}
	PutCells(big)
	PutCells(again)
	if got := GetCells[int32](base + 5); &got[0] != &small[0] {
		t.Fatal("Get did not pick the smallest buffer that fits")
	}
	resetShared(pool32, shareClass)
}

// TestSharedClassBounded: a full class drops its smallest buffer on Put.
func TestSharedClassBounded(t *testing.T) {
	// Two Ps keep the class, and the buffers this test allocates, small.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	resetShared(pool32, shareClass)
	base := 1 << shareClass
	first := make([]int32, base)
	PutCells(first)
	for x := 1; x <= sharedKeep(); x++ {
		PutCells(make([]int32, base+x))
	}
	if got := sharedLen(pool32, shareClass); got != sharedKeep() {
		t.Fatalf("class holds %d buffers, want %d", got, sharedKeep())
	}
	if got := GetCells[int32](base); &got[0] == &first[0] {
		t.Fatal("the smallest buffer was kept past the bound")
	}
	resetShared(pool32, shareClass)
}

// TestSharedClassExpires: a listed buffer serves the next Get, and one no
// Get takes is dropped once it has been idle for idleExpiry.
func TestSharedClassExpires(t *testing.T) {
	resetShared(pool32, shareClass+1)
	n := 1 << (shareClass + 1)
	s := GetCells[int32](n)
	PutCells(s)
	if r := GetCells[int32](n); &r[0] != &s[0] {
		t.Fatal("Get did not reuse the listed buffer")
	}
	PutCells(s)
	deadline := time.Now().Add(10 * idleExpiry)
	for sharedLen(pool32, shareClass+1) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a buffer idle for %v is still listed", 10*idleExpiry)
		}
		time.Sleep(idleExpiry / 10)
	}
}

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a share of its Puts at random on purpose.
var raceEnabled bool

// TestRoundTripAllocatesNothing: once warm, a Get/Put round trip allocates
// nothing in a per-P class, a shared class or the code arena. Put parks
// the slice in a recycled box, and a shared class lists it unboxed.
func TestRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, n := range []int{1000, 1<<shareClass + 5} {
		PutCells(GetCells[int32](n))
		if a := testing.AllocsPerRun(100, func() { PutCells(GetCells[int32](n)) }); a != 0 {
			t.Errorf("GetCells/PutCells(%d): %v allocations per round trip, want 0", n, a)
		}
	}
	PutCodes(GetCodes(300))
	if a := testing.AllocsPerRun(100, func() { PutCodes(GetCodes(300)) }); a != 0 {
		t.Errorf("GetCodes/PutCodes: %v allocations per round trip, want 0", a)
	}
}
