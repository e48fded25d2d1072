package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	repro "repro"
)

// AlignRequest is the wire form of one alignment: either inline residues
// (a/b/c) or a three-record FASTA document, plus per-request knobs. The
// zero knobs mean "server defaults": DNA alphabet, the alphabet's default
// scheme, AlgorithmAuto, the shared pool's worker count, the server's
// default deadline, and fallback-on.
type AlignRequest struct {
	A     string `json:"a,omitempty"`
	B     string `json:"b,omitempty"`
	C     string `json:"c,omitempty"`
	FASTA string `json:"fasta,omitempty"`

	Alphabet  string `json:"alphabet,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// DeadlineMS bounds this request's alignment wall-clock; with fallback
	// on (the default) an exceeded deadline degrades to the heuristic and
	// sets "degraded" in the response instead of failing.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Fallback opts out of graceful degradation when set to false.
	Fallback *bool `json:"fallback,omitempty"`
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// MaxMemoryBytes is the soft planning budget (Options.MaxMemoryBytes):
	// the planner downgrades to a smaller-memory kernel instead of
	// rejecting, recording each step in the response plan.
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`
}

// BatchRequest is the wire form of /v1/align/batch: shared defaults plus
// per-item requests (item fields override the defaults field-by-field for
// the knobs; sequences are always per-item).
type BatchRequest struct {
	Defaults *AlignRequest  `json:"defaults,omitempty"`
	Items    []AlignRequest `json:"items"`
}

// AlignResponse is the wire form of one alignment result.
type AlignResponse struct {
	Algorithm string    `json:"algorithm"`
	Score     int32     `json:"score"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Columns   int       `json:"columns"`
	Names     [3]string `json:"names"`
	Rows      [3]string `json:"rows"`
	// Degraded marks a heuristic fallback result: the score is a lower
	// bound on the optimum, and DegradedCause names the budget that ran
	// out (deadline or memory cap).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	// Coalesced reports that this request was served through a coalesced
	// batch submission rather than a dedicated run slot.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cache reports how the result cache served this request when the
	// server has one enabled (also carried in the X-Cache header):
	// "hit" (answered from the cache, no kernel work), "miss" (this
	// request led the computation), or "collapsed" (piggybacked on a
	// concurrent identical request's computation). The retired
	// near-duplicate patch-up's "near-dup" is no longer produced. Empty
	// when the cache is disabled.
	Cache string `json:"cache,omitempty"`
	// Plan is the execution plan that served the request: kernel, tile
	// shape, workers, footprint and duration estimates, and any
	// downgrades, including a band-first run's switch to its dense
	// fallback.
	Plan *repro.Plan `json:"plan,omitempty"`
	// EvaluatedCells is the number of lattice cells a Carrillo–Lipman
	// kernel actually evaluated. Zero for kernels that fill the whole
	// lattice.
	EvaluatedCells int64 `json:"evaluated_cells,omitempty"`
}

// BatchResponse is the wire form of /v1/align/batch: one entry per item in
// input order, each either a result or an error string.
type BatchResponse struct {
	Results []BatchItemResponse `json:"results"`
}

// BatchItemResponse is one batch item's outcome.
type BatchItemResponse struct {
	Index  int            `json:"index"`
	Result *AlignResponse `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// errorResponse is the body of every non-2xx JSON reply.
type errorResponse struct {
	Error string `json:"error"`
}

// badRequestError marks client-side validation failures so errorStatus can
// map them to 400 without string matching.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// badRequestf builds a *badRequestError.
func badRequestf(format string, args ...any) error {
	return &badRequestError{fmt.Sprintf(format, args...)}
}

// triple materializes the request's sequences: inline residues or FASTA,
// never both, validated against the alphabet and the server's length cap.
func (s *Server) triple(req *AlignRequest) (repro.Triple, error) {
	name := req.Alphabet
	if name == "" {
		name = "dna"
	}
	alpha, ok := repro.AlphabetByName(name)
	if !ok {
		return repro.Triple{}, badRequestf("unknown alphabet %q (want dna, rna, or protein)", name)
	}
	inline := req.A != "" || req.B != "" || req.C != ""
	if inline && req.FASTA != "" {
		return repro.Triple{}, badRequestf("give either a/b/c or fasta, not both")
	}
	var tr repro.Triple
	var err error
	if req.FASTA != "" {
		tr, err = repro.ReadTripleFASTA(strings.NewReader(req.FASTA), alpha)
	} else if inline {
		tr, err = repro.NewTriple(req.A, req.B, req.C, alpha)
	} else {
		return repro.Triple{}, badRequestf("no sequences: give a/b/c or fasta")
	}
	if err != nil {
		return repro.Triple{}, &badRequestError{err.Error()}
	}
	for _, sq := range []*repro.Sequence{tr.A, tr.B, tr.C} {
		if sq.Len() > s.cfg.MaxSequenceLen {
			return repro.Triple{}, badRequestf("sequence %q has %d residues; the server caps sequences at %d",
				sq.Name(), sq.Len(), s.cfg.MaxSequenceLen)
		}
	}
	return tr, nil
}

// item resolves one wire request into a BatchItem ready for execution.
func (s *Server) item(req *AlignRequest) (repro.BatchItem, error) {
	tr, err := s.triple(req)
	if err != nil {
		return repro.BatchItem{}, err
	}
	opt, err := s.resolveOptions(req)
	if err != nil {
		return repro.BatchItem{}, err
	}
	if err := checkSchemeAlphabet(opt.Scheme, tr.A.Alphabet()); err != nil {
		return repro.BatchItem{}, err
	}
	return repro.BatchItem{Triple: tr, Opt: opt}, nil
}

// checkSchemeAlphabet rejects a scheme over another alphabet than the
// sequences'. The planner never looks at the alphabet and the kernels
// refuse the pair only once they run, so without this check the same body
// would plan fine and then fail as a server error.
func checkSchemeAlphabet(sch *repro.Scheme, alpha *repro.Alphabet) error {
	if sch != nil && sch.Alphabet() != alpha {
		return badRequestf("scheme %q scores %s, sequences are %s",
			sch.Name(), sch.Alphabet().Name(), alpha.Name())
	}
	return nil
}

// merge overlays item-level knobs on the batch defaults. Sequence fields
// are never inherited; knob fields are taken from the item when set.
func merge(def *AlignRequest, item AlignRequest) AlignRequest {
	if def == nil {
		return item
	}
	out := item
	if out.Alphabet == "" {
		out.Alphabet = def.Alphabet
	}
	if out.Scheme == "" {
		out.Scheme = def.Scheme
	}
	if out.Algorithm == "" {
		out.Algorithm = def.Algorithm
	}
	if out.Workers == 0 {
		out.Workers = def.Workers
	}
	if out.DeadlineMS == 0 {
		out.DeadlineMS = def.DeadlineMS
	}
	if out.Fallback == nil {
		out.Fallback = def.Fallback
	}
	if out.MaxBytes == 0 {
		out.MaxBytes = def.MaxBytes
	}
	if out.MaxMemoryBytes == 0 {
		out.MaxMemoryBytes = def.MaxMemoryBytes
	}
	return out
}

// response converts a library Result to the wire form.
func response(res *repro.Result, coalesced bool) *AlignResponse {
	ra, rb, rc := res.Rows()
	out := &AlignResponse{
		Algorithm: string(res.Algorithm),
		Score:     res.Score,
		ElapsedMS: durMS(res.Elapsed),
		Columns:   res.Columns(),
		Names:     [3]string{res.Triple.A.Name(), res.Triple.B.Name(), res.Triple.C.Name()},
		Rows:      [3]string{ra, rb, rc},
		Coalesced: coalesced,
		Plan:      res.Plan,
	}
	if res.Prune != nil {
		out.EvaluatedCells = res.Prune.EvaluatedCells
	}
	if res.Degraded {
		out.Degraded = true
		if res.DegradedCause != nil {
			out.DegradedCause = res.DegradedCause.Error()
		}
	}
	return out
}

// errorStatus maps an execution error to an HTTP status: validation 400,
// over-cap lattices 413, deadlines 504, cancelled requests 499 (the
// de-facto client-closed-request code), everything else 500.
func errorStatus(err error) int {
	var br *badRequestError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, repro.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	}
	return http.StatusInternalServerError
}

// writeJSON writes a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeError writes the JSON error body for status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
