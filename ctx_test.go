package repro

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestAlignContextPreCancelledAllAlgorithms verifies every algorithm —
// exact and heuristic alike — fails fast under an already-cancelled
// context, wrapping context.Canceled.
func TestAlignContextPreCancelledAllAlgorithms(t *testing.T) {
	g := NewGenerator(DNA, 301)
	tr := g.RelatedTriple(20, MutationModel{SubstitutionRate: 0.1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	algos := append(Algorithms(), AlgorithmAuto)
	for _, algo := range algos {
		res, err := AlignContext(ctx, tr, Options{Algorithm: algo})
		if err == nil {
			t.Errorf("%q: pre-cancelled context accepted", algo)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%q: err = %v, want wrapped context.Canceled", algo, err)
		}
		if res != nil {
			t.Errorf("%q: non-nil result on cancellation", algo)
		}
	}
}

// TestAlignContextMidFlightDeadline cancels a large parallel alignment
// mid-flight: the call must return within a small bounded time, report
// the deadline, and leave no worker goroutines behind.
func TestAlignContextMidFlightDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("large lattice")
	}
	g := NewGenerator(DNA, 302)
	// 320³ ≈ 33M cells keeps the lane-packed blocked fill busy well past
	// the deadline on a few cores.
	tr := g.RelatedTriple(320, MutationModel{SubstitutionRate: 0.15})
	// Warm the shared worker pool before capturing the goroutine baseline:
	// pool workers persist across runs by design and must not read as leaks.
	warm := g.RelatedTriple(24, MutationModel{SubstitutionRate: 0.1})
	if _, err := Align(warm, Options{Algorithm: AlgorithmParallel, Workers: 4}); err != nil {
		t.Fatalf("pool warm-up failed: %v", err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := AlignContext(ctx, tr, Options{Algorithm: AlgorithmParallel, Workers: 4})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("320^3 alignment finished under a 5ms deadline — lattice too small to test cancellation")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want bounded return", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestAlignContextDeadlineFallback exercises the graceful-degradation
// policy: with Fallback set, an aggressive deadline yields a valid
// center-star-refined alignment marked Degraded.
func TestAlignContextDeadlineFallback(t *testing.T) {
	g := NewGenerator(DNA, 303)
	tr := g.RelatedTriple(150, MutationModel{SubstitutionRate: 0.1})

	res, err := Align(tr, Options{Deadline: time.Nanosecond, Fallback: true})
	if err != nil {
		t.Fatalf("fallback should have recovered: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded")
	}
	if res.Algorithm != AlgorithmCenterStarRefined {
		t.Fatalf("degraded algorithm = %q, want center-star-refined", res.Algorithm)
	}
	if !errors.Is(res.DegradedCause, context.DeadlineExceeded) {
		t.Fatalf("DegradedCause = %v, want wrapped context.DeadlineExceeded", res.DegradedCause)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("degraded alignment invalid: %v", err)
	}
}

// TestAlignContextMaxBytesFallback: the MaxBytes admission check is the
// other degradable failure. A forced exact algorithm over the cap either
// fails (no fallback) or degrades (fallback).
func TestAlignContextMaxBytesFallback(t *testing.T) {
	g := NewGenerator(DNA, 304)
	tr := g.RelatedTriple(60, MutationModel{SubstitutionRate: 0.1})
	opt := Options{Algorithm: AlgorithmFull, MaxBytes: 128}

	if _, err := Align(tr, opt); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("no-fallback err = %v, want ErrTooLarge", err)
	}

	opt.Fallback = true
	res, err := Align(tr, opt)
	if err != nil {
		t.Fatalf("fallback should have recovered: %v", err)
	}
	if !res.Degraded || !errors.Is(res.DegradedCause, ErrTooLarge) {
		t.Fatalf("Degraded = %v, DegradedCause = %v, want ErrTooLarge", res.Degraded, res.DegradedCause)
	}
}

// TestAlignContextDeadlineNoFallback: without Fallback the deadline error
// surfaces to the caller.
func TestAlignContextDeadlineNoFallback(t *testing.T) {
	g := NewGenerator(DNA, 305)
	tr := g.RelatedTriple(150, MutationModel{SubstitutionRate: 0.1})
	_, err := Align(tr, Options{Deadline: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestAlignContextNoFallbackForHeuristics: heuristics are already the
// floor; Fallback must not mask their failure modes or re-run them.
func TestAlignContextNoFallbackForHeuristics(t *testing.T) {
	g := NewGenerator(DNA, 306)
	tr := g.RelatedTriple(30, MutationModel{SubstitutionRate: 0.1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AlignContext(ctx, tr, Options{Algorithm: AlgorithmCenterStar, Fallback: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled heuristic with fallback: err = %v, want context.Canceled", err)
	}
}

// TestAlignContextDeadParentNoFallback: when the caller's own context is
// done, Fallback must not burn more work on a caller that has left. The
// parent's deadline has passed before the call, so the check runs however
// fast the host fills the lattice; it hides that until its first Err
// check, so the call gets past admission and the kernel's deadline error
// reaches the fallback decision.
func TestAlignContextDeadParentNoFallback(t *testing.T) {
	g := NewGenerator(DNA, 307)
	tr := g.RelatedTriple(150, MutationModel{SubstitutionRate: 0.1})
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := AlignContext(&lateDeadline{Context: dead}, tr, Options{Algorithm: AlgorithmParallel, Fallback: true})
	if err == nil {
		t.Fatalf("dead parent context served a result (degraded %v)", res.Degraded)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// lateDeadline is a context past its deadline whose first Err reports
// nil.
type lateDeadline struct {
	context.Context
	checked atomic.Bool
}

func (c *lateDeadline) Err() error {
	if !c.checked.Swap(true) {
		return nil
	}
	return c.Context.Err()
}

// waitForGoroutines polls until the goroutine count returns to (near) the
// baseline, failing after a grace period. A small tolerance absorbs
// runtime/test-framework goroutines that come and go.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now, baseline %d", runtime.NumGoroutine(), baseline)
}
