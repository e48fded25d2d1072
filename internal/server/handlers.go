package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	repro "repro"
	"repro/internal/faultpoint"
	"repro/internal/wavefront"
)

// errDraining is the 503 body for alignment requests arriving mid-drain.
var errDraining = errors.New("server draining; not accepting new alignments")

// errQueueFull is what admit returns when it sheds a request; reply
// answers it with 429 and the Retry-After hint. A shed flight leader
// returns it to every member of its flight, so each answers 429 exactly
// as if it had been shed itself.
var errQueueFull = errors.New("queue full; retry later")

// retryAttemptHeader marks a request as attempt n of a retrying client
// (the client package sets it); the server counts them so operators can
// see retry pressure that per-client logs hide.
const retryAttemptHeader = "X-Retry-Attempt"

// fpAdmit injects a transient 503 (with a Retry-After hint) at admission —
// the canonical fault a retrying client must mask. Behavioral: nothing is
// corrupted, the request is simply refused as if the server were briefly
// unavailable.
var fpAdmit = faultpoint.New("server.admit")

// fail records one failed request, counting contained panics separately:
// a *wavefront.PanicError surfacing here means a kernel died and the
// process did not.
func (s *Server) fail(err error) {
	s.stats.failed.Add(1)
	if wavefront.IsPanic(err) {
		s.stats.panicsContained.Add(1)
	}
}

// retryAfter sets the Retry-After hint that a shed or injected refusal
// carries.
func (s *Server) retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
}

// begin is the prologue of every endpoint that aligns: refuse new work
// while draining (503), count a client retry, fire the admission fault
// point (an injected 503 with the Retry-After hint, counted as shed), and
// decode the body into req. False means the answer is already written.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, req any) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return false
	}
	if r.Header.Get(retryAttemptHeader) != "" {
		s.stats.retriesObserved.Add(1)
	}
	if fpAdmit.Fire() {
		s.stats.shed.Add(1)
		s.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, errors.New("fault injected: admission unavailable; retry"))
		return false
	}
	if err := s.decode(w, r, req); err != nil {
		s.reply(w, err)
		return false
	}
	return true
}

// reply answers a request that got no result: errQueueFull is a shed,
// answered 429 with the Retry-After hint; any other error counts as
// failed and is answered with its status.
func (s *Server) reply(w http.ResponseWriter, err error) {
	if errors.Is(err, errQueueFull) {
		s.stats.shed.Add(1)
		s.retryAfter(w)
		writeError(w, http.StatusTooManyRequests, errQueueFull)
		return
	}
	s.fail(err)
	writeError(w, errorStatus(err), err)
}

// decode reads one JSON request body under the configured size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return &badRequestError{"malformed JSON: " + err.Error()}
	}
	return nil
}

// planItem plans one resolved item and enforces the server's lattice cap:
// the memory-aware admission check that runs *before* a queue slot is
// taken, so an oversized request is shed with 413 without ever occupying
// queue depth.
func (s *Server) planItem(item repro.BatchItem) (*repro.Plan, error) {
	pl, err := repro.PlanAlign(item.Triple, item.Opt)
	if err != nil {
		return nil, err
	}
	if limit := s.cfg.MaxLatticeBytes; limit > 0 && pl.EstBytes > uint64(limit) {
		return nil, fmt.Errorf("planned %s lattice needs %d bytes; the server caps lattices at %d bytes: %w",
			pl.Algorithm, pl.EstBytes, limit, repro.ErrTooLarge)
	}
	return pl, nil
}

// handleAlign serves POST /v1/align: parse, then route to the cached path
// (cache.go) when the result cache is enabled, or straight through the
// admission pipeline, executing through the coalescer for small requests
// or on a run slot otherwise.
func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	var req AlignRequest
	if !s.begin(w, r, &req) {
		return
	}
	item, err := s.item(&req)
	if err != nil {
		s.reply(w, err)
		return
	}
	if s.cache != nil {
		s.alignCached(w, r, item, &req)
		return
	}
	s.alignUncached(w, r, item)
}

// alignUncached is the classic (cache-disabled) /v1/align pipeline.
func (s *Server) alignUncached(w http.ResponseWriter, r *http.Request, item repro.BatchItem) {
	res, _, coalesced, err := s.admitAlign(r.Context(), item)
	if err != nil {
		s.reply(w, err)
		return
	}
	s.stats.complete(res.Degraded)
	writeJSON(w, http.StatusOK, response(res, coalesced))
}

// admitAlign runs one /v1/align item through admit. Its plan step imposes
// the pressure budget (a degrade shapes the plan and its downgrade ladder
// rather than second-guessing it afterwards) and plans under the lattice
// cap; its run step executes under ctx. It also returns the plan, whose
// estimated duration the cache's cost floor weighs.
func (s *Server) admitAlign(ctx context.Context, item repro.BatchItem) (res *repro.Result, pl *repro.Plan, coalesced bool, err error) {
	err = s.admit(ctx, func(degrade bool) (uint64, error) {
		if degrade {
			s.degradeForPressure(&item.Opt)
		}
		var err error
		if pl, err = s.planItem(item); err != nil {
			return 0, err
		}
		return pl.EstBytes, nil
	}, func(ctx context.Context) (err error) {
		res, coalesced, err = s.executeCtx(ctx, item)
		return err
	})
	if err == nil {
		s.stats.recordRun(res)
	}
	return res, pl, coalesced, err
}

// handlePlan serves POST /v1/plan: the dry-run planning endpoint. The
// request body is an AlignRequest; the response is the execution plan
// Align would run, resolved under the same option and admission rules —
// including the MaxLatticeBytes 413 — but without taking a queue slot or
// aligning anything. Planning is read-only, so it stays available during
// drain.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req AlignRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	item, err := s.item(&req)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	pl, err := s.planItem(item)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, pl)
}

// handleBatch serves POST /v1/align/batch. The whole batch is one
// admission — one pressure decision, one admission slot, one run slot —
// and executes as a single AlignBatchItemsContext submission.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.begin(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.reply(w, badRequestf("empty batch: give items"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.reply(w, badRequestf("batch has %d items; the server caps batches at %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	// The plan step resolves and plans every item: a batch with a
	// malformed or over-cap item is rejected whole, which keeps "results"
	// aligned with "items" and keeps oversized lattices out of the queue.
	items := make([]repro.BatchItem, len(req.Items))
	var results []repro.BatchResult
	err := s.admit(r.Context(), func(degrade bool) (uint64, error) {
		var est uint64
		for i := range req.Items {
			merged := merge(req.Defaults, req.Items[i])
			item, err := s.item(&merged)
			if err != nil {
				return 0, fmt.Errorf("item %d: %w", i, err)
			}
			if degrade {
				s.degradeForPressure(&item.Opt)
			}
			pl, err := s.planItem(item)
			if err != nil {
				return 0, fmt.Errorf("item %d: %w", i, err)
			}
			est += pl.EstBytes
			items[i] = item
		}
		return est, nil
	}, func(ctx context.Context) error {
		return s.onRunSlot(ctx, func() error {
			results = repro.AlignBatchItemsContext(ctx, items)
			return nil
		})
	})
	if err != nil {
		s.reply(w, err)
		return
	}
	out := BatchResponse{Results: make([]BatchItemResponse, len(results))}
	for i, res := range results {
		out.Results[i].Index = res.Index
		if res.Err != nil {
			s.fail(res.Err)
			out.Results[i].Error = res.Err.Error()
			continue
		}
		s.stats.complete(res.Result.Degraded)
		s.stats.recordRun(res.Result)
		out.Results[i].Result = response(res.Result, false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 503 once draining so load balancers
// stop routing here before the listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}
