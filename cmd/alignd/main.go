// Command alignd serves three-sequence alignment over an HTTP JSON API
// with bounded admission, request coalescing, and graceful drain.
//
// Usage:
//
//	alignd -addr :8080 -workers 8 -queue 64 -max-in-flight 8
//	curl -s localhost:8080/v1/align -d '{"a":"ACGT","b":"ACGT","c":"AGGT"}'
//
// Endpoints:
//
//	POST /v1/align        one triple; small requests are coalesced per tick
//	POST /v1/align/batch  many triples in one submission
//	POST /v1/plan         dry run: the execution plan for a request, no alignment
//	POST /v1/msa          progressive N-sequence MSA built from exact 3-way merges
//	POST /v1/msa/plan     dry run: the guide tree's merge schedule and byte estimates
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 once draining)
//	GET  /statsz          queue/pool gauges, counters, latency quantiles
//	     /debug/pprof/*   live profiling
//
// Overload is shed, never queued unboundedly: when the admission queue is
// full /v1/align answers 429 with a Retry-After hint, and /statsz's
// queue_depth stays within -queue. With -max-lattice-bytes set, requests
// whose planner-estimated lattice footprint exceeds the cap are shed with
// 413 before taking a queue slot; /statsz reports est_bytes_in_flight and
// planned_downgrades so the cap can be sized from observed pressure.
//
// With -cache-bytes set, exact results are cached by content address:
// repeated identical requests answer from the cache without queueing,
// and concurrent identical requests collapse into one computation.
// Responses on the cached path carry an X-Cache header (hit, miss, or
// collapsed) and /statsz grows cache_* counters. Caching changes
// observable shedding behavior (collapsed duplicates no longer consume
// queue slots), so it is off by default. -cache-neardup-identity still
// parses but does nothing: the near-duplicate patch-up it tuned was
// retired, since a band-first miss runs faster.
//
// On SIGTERM (or SIGINT) alignd drains: /readyz flips to 503 immediately,
// new alignment requests are refused with 503, the -drain-grace window
// lets load balancers observe the flip, in-flight requests run to
// completion (bounded by -drain-timeout), and the process exits 0. A
// second signal aborts immediately with a non-zero exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/prof"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("alignd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "alignment worker-pool size (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "admission queue bound (waiting + running requests); beyond it requests shed with 429")
		maxInFlight  = fs.Int("max-in-flight", 0, "concurrently executing submissions (0 = workers)")
		coalesceTick = fs.Duration("coalesce-tick", 2*time.Millisecond, "buffering window for coalescing small aligns into one batch (0 disables)")
		coalesceMax  = fs.Int("coalesce-max", 16, "flush a coalesced batch early at this many requests")
		deadline     = fs.Duration("deadline", 0, "default per-request alignment deadline (0 = none)")
		maxDeadline  = fs.Duration("max-deadline", 30*time.Second, "cap on per-request deadlines")
		maxSeq       = fs.Int("max-seq", 4096, "per-sequence residue cap")
		maxMsaSeqs   = fs.Int("max-msa-seqs", 16, "per-/v1/msa family size cap (hard limit 64)")
		maxBody      = fs.Int64("max-body", 8<<20, "request body byte cap")
		maxLattice   = fs.Int64("max-lattice-bytes", 0, "planner-estimated lattice byte cap per alignment; larger requests shed with 413 before queueing (0 = no cap)")
		memSoft      = fs.Int64("mem-soft-limit", 0, "heap soft limit in bytes: approaching it degrades new admissions through the planner's downgrade ladder, exceeding it sheds with 429 (0 disables the pressure guard)")
		memFrac      = fs.Float64("mem-degrade-fraction", 0.85, "fraction of -mem-soft-limit at which admissions start degrading")
		cacheBytes   = fs.Int64("cache-bytes", 0, "result cache byte budget: identical requests answer from the cache and concurrent identical requests collapse into one computation (0 disables)")
		cacheMinCost = fs.Duration("cache-min-cost", 0, "only cache results whose planner-estimated duration is at least this (0 = cache everything admitted)")
		_            = fs.Float64("cache-neardup-identity", 0.90, "ignored: the near-duplicate patch-up it tuned was retired; the flag still parses so existing command lines start")
		drainGrace   = fs.Duration("drain-grace", time.Second, "pause between flipping /readyz and closing the listener")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "bound on waiting for in-flight requests during drain")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("alignd: %w", err)
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fmt.Errorf("alignd: %w", err)
	}
	defer stopProf()

	logger := log.New(logw, "alignd: ", log.LstdFlags)
	srv := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		MaxInFlight:        *maxInFlight,
		CoalesceTick:       *coalesceTick,
		CoalesceMax:        *coalesceMax,
		DefaultDeadline:    *deadline,
		MaxDeadline:        *maxDeadline,
		MaxSequenceLen:     *maxSeq,
		MaxMsaSequences:    *maxMsaSeqs,
		MaxBodyBytes:       *maxBody,
		MaxLatticeBytes:    *maxLattice,
		MemSoftLimitBytes:  *memSoft,
		MemDegradeFraction: *memFrac,
		CacheBytes:         *cacheBytes,
		CacheMinCost:       *cacheMinCost,
	})
	if armed := faultpoint.Armed(); len(armed) > 0 {
		logger.Printf("fault points armed via %s: %v", faultpoint.EnvVar, armed)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return fmt.Errorf("alignd: %w", err)
	case <-sigCtx.Done():
	}

	// Drain: flip readiness first so load balancers route away, keep the
	// listener up for the grace window, then wait for in-flight requests.
	logger.Printf("drain: signal received; flipping /readyz")
	srv.BeginDrain()
	stop() // a second signal now kills the process immediately
	time.Sleep(*drainGrace)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = hs.Shutdown(shCtx)
	srv.Close()
	if err != nil {
		return fmt.Errorf("alignd: drain timed out: %w", err)
	}
	if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) {
		return fmt.Errorf("alignd: %w", serveErr)
	}
	logger.Printf("drain: complete; exiting")
	return nil
}
