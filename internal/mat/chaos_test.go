package mat

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/faultpoint"
)

// The arena chaos suite: with the mat.arena.get / mat.arena.put fault
// points panicking at injected hits — and the panics contained by the
// caller, the way kernels contain them — the arena must keep its one
// invariant: a buffer is never live in two hands at once. A put that
// panics before pooling merely leaks that buffer to the GC, which is safe;
// handing one backing array to two callers is the corruption the suite
// exists to catch.

// safeGet is GetScores with the injected panic contained, the shape of a
// caller that survives an arena fault.
func safeGet(n int) (s []Score, ok bool) {
	defer func() {
		if recover() != nil {
			s, ok = nil, false
		}
	}()
	return GetScores(n), true
}

// safePut is PutScores with the injected panic contained; on a fault the
// buffer is simply dropped (leaked to the GC), never half-pooled.
func safePut(s []Score) {
	defer func() { _ = recover() }()
	PutScores(s)
}

func armArenaFaults(t *testing.T) {
	t.Helper()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("mat.arena.get", "prob:0.05:11"); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("mat.arena.put", "prob:0.2:7"); err != nil {
		t.Fatal(err)
	}
}

// TestArenaChaosNoDoubleHandout is the testing/quick property from the
// issue: random get/put sequences under injected faults never produce two
// live slices sharing a backing array.
func TestArenaChaosNoDoubleHandout(t *testing.T) {
	armArenaFaults(t)
	prop := func(sizes []uint16) bool {
		live := make(map[*Score][]Score)
		for _, raw := range sizes {
			n := int(raw)%4096 + 1
			s, ok := safeGet(n)
			if !ok {
				continue // injected get fault, contained by the caller
			}
			if len(s) != n {
				t.Logf("GetScores(%d) returned len %d", n, len(s))
				return false
			}
			if _, dup := live[&s[0]]; dup {
				t.Logf("double handout: buffer %p live twice", &s[0])
				return false
			}
			live[&s[0]] = s
		}
		for _, s := range live {
			safePut(s)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaChaosPanicBetweenGetAndPut models the kernel discipline: Get,
// defer Put, panic mid-fill. The deferred Put must return the buffer
// exactly once, so the next two Gets of the same class never alias.
func TestArenaChaosPanicBetweenGetAndPut(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	kernel := func(n int) {
		tt := GetTensor3(n, n, n)
		defer PutTensor3(tt)
		tt.Fill(0)
		panic("kernel died mid-fill")
	}
	for i := 0; i < 10; i++ {
		func() {
			defer func() { _ = recover() }()
			kernel(17)
		}()
		a := GetTensor3(17, 17, 17)
		b := GetTensor3(17, 17, 17)
		if &a.data[0] == &b.data[0] {
			t.Fatalf("iteration %d: two live tensors share a backing array", i)
		}
		PutTensor3(a)
		PutTensor3(b)
	}
}

// TestArenaChaosConcurrent hammers the arena from many goroutines under
// injected faults, with every holder writing its own tag over its whole
// buffer and verifying it before release: shared backing arrays surface
// as tag mismatches (and as data races under -race).
func TestArenaChaosConcurrent(t *testing.T) {
	armArenaFaults(t)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tag Score) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tag)))
			for i := 0; i < 400; i++ {
				n := rng.Intn(2048) + 1
				s, ok := safeGet(n)
				if !ok {
					continue
				}
				for j := range s {
					s[j] = tag
				}
				for j := range s {
					if s[j] != tag {
						errs <- "buffer overwritten while held: shared backing array"
						return
					}
				}
				safePut(s)
			}
		}(Score(g + 1))
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
	if hits, fired := faultpoint.Stats("mat.arena.put"); hits == 0 || fired == 0 {
		t.Fatalf("put fault never exercised (hits=%d fired=%d)", hits, fired)
	}
}

// TestArenaChaosSharedClasses is TestArenaChaosConcurrent over the
// lattice-sized classes, which every P shares through one list: under
// injected faults, no buffer is ever held by two goroutines at once.
func TestArenaChaosSharedClasses(t *testing.T) {
	armArenaFaults(t)
	// Two Ps bound what the classes keep listed (one buffer per P).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tag int16) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tag)))
			for i := 0; i < 24; i++ {
				n := 1<<shareClass + rng.Intn(1<<(shareClass-1))
				s, ok := safeGetCells[int16](n)
				if !ok {
					continue
				}
				for j := range s {
					s[j] = tag
				}
				runtime.Gosched()
				for j := range s {
					if s[j] != tag {
						errs <- "shared-class buffer overwritten while held"
						return
					}
				}
				func() {
					defer func() { _ = recover() }()
					PutCells(s)
				}()
			}
		}(int16(g + 1))
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// safeGetCells is safeGet at any cell width.
func safeGetCells[T Cell](n int) (s []T, ok bool) {
	defer func() {
		if recover() != nil {
			s, ok = nil, false
		}
	}()
	return GetCells[T](n), true
}
