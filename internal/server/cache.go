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
//     uncached path runs (admitAlign) and computes under the server's
//     base context, like a coalesced flush, so one impatient client cannot
//     cancel work its flight-mates share. The other members collapse onto
//     the leader's result without consuming queue depth.
//
// Every response on this path carries an X-Cache header and a "cache"
// body field: "hit", "miss" (leader), or "collapsed" (waiter).

import (
	"context"
	"errors"
	"net/http"
	"time"

	repro "repro"
	"repro/internal/resultcache"
)

// Cache states reported in the X-Cache header and the response body.
const (
	cacheStateHit       = "hit"
	cacheStateMiss      = "miss"
	cacheStateCollapsed = "collapsed"
)

// cacheFill is the value a flight computes: the result and whether the
// coalescer produced it. Waiters share the same *Result; nothing on the
// response path mutates it.
type cacheFill struct {
	res       *repro.Result
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
		return s.fillAlign(item, key, meta)
	})
	if !out.Leader {
		s.stats.cacheCollapsed.Add(1)
	}
	if out.Err != nil {
		var lp *resultcache.LeaderPanicError
		if errors.As(out.Err, &lp) && out.Leader {
			// Count the contained panic once (the leader), not once per
			// flight member; reply counts each affected request as failed.
			s.stats.panicsContained.Add(1)
		}
		s.reply(w, out.Err)
		return
	}
	state := cacheStateMiss
	if !out.Leader {
		state = cacheStateCollapsed
	}
	s.stats.complete(out.Val.res.Degraded)
	s.writeAligned(w, out.Val.res, out.Val.coalesced, state)
}

// fillAlign is the flight leader's computation: the admission pipeline
// with the run under the server's base context, then cache admission by
// planned cost.
func (s *Server) fillAlign(item repro.BatchItem, key resultcache.Key, meta resultcache.Meta) (cacheFill, error) {
	res, pl, coalesced, err := s.admitAlign(s.base, item)
	if pl != nil && !errors.Is(err, errQueueFull) {
		// Planned and admitted: the kernel ran, whatever it returned.
		s.stats.cacheFills.Add(1)
	}
	if err != nil {
		return cacheFill{}, err
	}
	if s.cfg.CacheMinCost <= 0 || pl.EstDuration >= s.cfg.CacheMinCost {
		// Put refuses degraded results itself — their content depends on
		// the deadline that produced them, which is not part of the key.
		s.cache.Put(key, meta, res, pl.EstDuration, nil)
	}
	return cacheFill{res: res, coalesced: coalesced}, nil
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
	err = s.onRunSlot(ctx, func() (err error) {
		res, err = repro.AlignContext(ctx, item.Triple, item.Opt)
		return err
	})
	return res, false, err
}
