package server

// The cached /v1/align path. With CacheBytes set, every align request is
// content-addressed (internal/resultcache.KeyFor) before touching
// admission:
//
//   - A cache hit is answered immediately — no pressure check, no plan, no
//     queue slot, no coalescer. Hits are the point of the cache: they must
//     stay cheap when the queue is on fire.
//   - A miss enters a singleflight keyed by the same content address.
//     Exactly one request (the leader) runs the admission pipeline the
//     uncached path would have run — pressure, plan with the 413 lattice
//     cap, the bounded admission queue — and computes under the server's
//     base context, like a coalesced flush, so one impatient client cannot
//     cancel work its flight-mates share. The other members collapse onto
//     the leader's result without consuming queue depth.
//   - Before computing in full, the leader consults the k-mer
//     near-duplicate prescreen: a cached triple within the identity
//     threshold donates its score as the seed of a cheap bounded re-align
//     (repro.AlignSeeded). The patch-up is verified by construction — a
//     seed above the true optimum makes the bounded traceback fail, and
//     the leader falls through to the full plan — so near-dup answers are
//     bit-identical to uncached ones.
//
// Every response on this path carries an X-Cache header and a "cache"
// body field: "hit", "miss" (leader, computed in full), "near-dup"
// (leader, verified patch-up), or "collapsed" (waiter).

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	repro "repro"
	"repro/internal/resultcache"
)

// Cache states reported in the X-Cache header and the response body.
const (
	cacheStateHit       = "hit"
	cacheStateMiss      = "miss"
	cacheStateNearDup   = "near-dup"
	cacheStateCollapsed = "collapsed"
)

// errQueueFull is the sentinel a flight leader returns when admission
// sheds it; every member of the flight answers 429 with the Retry-After
// hint, exactly as if each had been shed individually.
var errQueueFull = errors.New("server: queue full")

// cacheFill is the value a flight computes: the result plus how it was
// produced. Waiters share the same *Result; nothing on the response path
// mutates it.
type cacheFill struct {
	res       *repro.Result
	state     string // cacheStateMiss or cacheStateNearDup
	coalesced bool
}

// cacheScheme resolves the scoring scheme a request will align under —
// the explicit option or the alphabet's default — for key derivation.
func cacheScheme(item repro.BatchItem) (*repro.Scheme, error) {
	if item.Opt.Scheme != nil {
		return item.Opt.Scheme, nil
	}
	return repro.DefaultScheme(item.Triple.A.Alphabet())
}

// nearDupEligible gates the prescreen: it needs an enabled threshold, a
// linear-gap scheme (the seeded kernel is linear), and an algorithm-
// agnostic request — a client that pinned a specific kernel gets exactly
// that kernel, never the patch-up's bounded one.
func (s *Server) nearDupEligible(req *AlignRequest, sch *repro.Scheme) bool {
	id := s.cfg.CacheNearDupIdentity
	if id <= 0 || id >= 1 || sch.Affine() {
		return false
	}
	algo := strings.ToLower(strings.TrimSpace(req.Algorithm))
	return algo == "" || algo == "auto"
}

// alignCached serves one /v1/align request through the cache. The request
// has been decoded and resolved; draining, retry observation, and the
// admission fault point already ran in handleAlign.
func (s *Server) alignCached(w http.ResponseWriter, r *http.Request, item repro.BatchItem, req *AlignRequest) {
	start := time.Now()
	sch, err := cacheScheme(item)
	if err != nil {
		// No canonical scheme to key on: serve uncached rather than fail a
		// request the uncached path could answer.
		s.alignUncached(w, r, item)
		return
	}
	// One sketch per request, for the near-dup prescreen and the Put.
	sk := repro.SketchTriple(item.Triple)
	key, meta := resultcache.KeyFor(item.Triple, sch, req.Algorithm)

	if res, ok := s.cache.Get(key); ok {
		res.CacheHit = true
		res.Elapsed = time.Since(start)
		s.stats.completed.Add(1)
		s.stats.latency.record(res.Elapsed)
		s.writeAligned(w, res, false, cacheStateHit)
		return
	}

	out := s.flight.Do(r.Context(), key, func() (cacheFill, error) {
		return s.fillAlign(item, req, key, meta, sk, sch)
	})
	if !out.Leader {
		s.stats.cacheCollapsed.Add(1)
	}
	if out.Err != nil {
		if errors.Is(out.Err, errQueueFull) {
			s.shed(w)
			return
		}
		var lp *resultcache.LeaderPanicError
		if errors.As(out.Err, &lp) && out.Leader {
			// Count the contained panic once (the leader), not once per
			// flight member; fail() below counts each affected request.
			s.stats.panicsContained.Add(1)
		}
		s.fail(out.Err)
		writeError(w, errorStatus(out.Err), out.Err)
		return
	}
	state := out.Val.state
	if !out.Leader {
		state = cacheStateCollapsed
	}
	s.stats.completed.Add(1)
	if out.Val.res.Degraded {
		s.stats.degraded.Add(1)
	}
	s.stats.latency.record(time.Since(start))
	s.writeAligned(w, out.Val.res, out.Val.coalesced, state)
}

// fillAlign is the flight leader's computation: the full admission
// pipeline (pressure, plan, queue slot), then either a verified
// near-duplicate patch-up or the regular execution path, then cache
// admission by planned cost.
func (s *Server) fillAlign(item repro.BatchItem, req *AlignRequest, key resultcache.Key, meta resultcache.Meta, sk *repro.TripleSketch, sch *repro.Scheme) (cacheFill, error) {
	switch s.pressureLevel() {
	case pressureShed:
		return cacheFill{}, errQueueFull
	case pressureDegrade:
		s.degradeForPressure(&item)
	}
	pl, err := s.planItem(item)
	if err != nil {
		return cacheFill{}, err
	}
	if !s.gate.tryAdmit() {
		return cacheFill{}, errQueueFull
	}
	defer s.gate.releaseAdmit()
	est := estGauge(pl.EstBytes)
	s.stats.estBytesInFlight.Add(est)
	defer s.stats.estBytesInFlight.Add(-est)
	s.stats.cacheFills.Add(1)

	fill := cacheFill{state: cacheStateMiss}
	if s.nearDupEligible(req, sch) {
		if cand, ok := s.cache.Nearest(sk, meta, s.cfg.CacheNearDupIdentity); ok {
			if res := s.patchNearDup(item, cand, sch); res != nil {
				fill.res, fill.state = res, cacheStateNearDup
				s.stats.cacheNearDup.Add(1)
			}
		}
	}
	if fill.res == nil {
		res, coalesced, err := s.executeCtx(s.base, item)
		if err != nil {
			return cacheFill{}, err
		}
		fill.res, fill.coalesced = res, coalesced
	}
	s.stats.recordPlan(fill.res.Plan)
	s.stats.recordPrune(fill.res.Prune)
	if s.cfg.CacheMinCost <= 0 || pl.EstDuration >= s.cfg.CacheMinCost {
		// Put refuses degraded results itself — their content depends on
		// the deadline that produced them, which is not part of the key.
		s.cache.Put(key, meta, fill.res, pl.EstDuration, sk)
	}
	return fill, nil
}

// patchNearDup runs the verified near-duplicate patch-up: a bounded
// re-align of the request's own triple seeded by the candidate's cached
// score, on a regular run slot. Any failure — an invalid (too-high) seed
// detected by the bounded traceback, a deadline, a cancelled server —
// returns nil and the caller falls through to the full plan, so this path
// can only ever change latency, not results.
func (s *Server) patchNearDup(item repro.BatchItem, cand resultcache.Candidate, sch *repro.Scheme) *repro.Result {
	tr := item.Triple
	total := tr.A.Len() + tr.B.Len() + tr.C.Len()
	seed := resultcache.SeedBound(cand.Score, cand.Identity, total, sch)
	if err := s.gate.acquireRun(s.base); err != nil {
		return nil
	}
	defer s.gate.releaseRun()
	res, err := repro.AlignSeeded(s.base, tr, item.Opt, int32(seed))
	if err != nil {
		return nil
	}
	return res
}

// writeAligned writes one successful alignment with its cache state in
// both the X-Cache header (for smoke tests and proxies) and the JSON body.
func (s *Server) writeAligned(w http.ResponseWriter, res *repro.Result, coalesced bool, state string) {
	resp := response(res, coalesced)
	resp.Cache = state
	w.Header().Set("X-Cache", state)
	writeJSON(w, http.StatusOK, resp)
}

// executeCtx runs one admitted item under ctx: coalesced when eligible,
// else directly on a run slot. The uncached path passes the request's
// context; a flight leader passes the server's base context so shared
// work survives any single client's disconnect.
func (s *Server) executeCtx(ctx context.Context, item repro.BatchItem) (res *repro.Result, coalesced bool, err error) {
	if s.coal.eligible(item) {
		if p := s.coal.submit(item); p != nil {
			select {
			case d := <-p.done:
				return d.res, true, d.err
			case <-ctx.Done():
				// The client is gone; the flush still runs (under the
				// server's base context) and its result is discarded.
				return nil, true, ctx.Err()
			}
		}
		// Coalescer closed mid-drain: fall through to the direct path.
	}
	if err := s.gate.acquireRun(ctx); err != nil {
		return nil, false, err
	}
	defer s.gate.releaseRun()
	res, err = repro.AlignContext(ctx, item.Triple, item.Opt)
	return res, false, err
}
