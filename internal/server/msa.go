package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	repro "repro"
)

// MsaRequest is the wire form of POST /v1/msa: N sequences (inline or
// FASTA) plus the same per-request knobs as /v1/align and the MSA-specific
// ones. MSA requests are never coalesced — they are batches internally —
// and never served from the result cache.
type MsaRequest struct {
	// Sequences are inline residue strings; Names optionally names them
	// (defaults to s0, s1, ...). Give either Sequences or FASTA, not both.
	Sequences []string `json:"sequences,omitempty"`
	Names     []string `json:"names,omitempty"`
	FASTA     string   `json:"fasta,omitempty"`

	Alphabet  string `json:"alphabet,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// DeadlineMS bounds the whole progressive run's wall-clock.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	Fallback   *bool `json:"fallback,omitempty"`
	MaxBytes   int64 `json:"max_bytes,omitempty"`
	// MaxMemoryBytes is the request-level soft budget, split across each
	// guide-tree level's concurrent merges by the planner's byte estimates.
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`
	// GuideK overrides the guide-tree k-mer size (default: repro.ProbeK).
	GuideK int `json:"guide_k,omitempty"`
	// RefineRounds bounds the refinement polish; negative disables it.
	RefineRounds int `json:"refine_rounds,omitempty"`
	// SerialMerges disables fanning merges through the batch layer.
	SerialMerges bool `json:"serial_merges,omitempty"`
	// Explain includes the guide tree and per-merge plans in the response.
	Explain bool `json:"explain,omitempty"`
}

// MsaMergeResponse describes one progressive merge in an explain response.
type MsaMergeResponse struct {
	Level     int         `json:"level"`
	Members   []int       `json:"members"`
	Out       int         `json:"out"`
	NWay      int         `json:"n_way"`
	Algorithm string      `json:"algorithm,omitempty"`
	BatchSize int         `json:"batch_size"`
	Degraded  bool        `json:"degraded,omitempty"`
	Plan      *repro.Plan `json:"plan,omitempty"`
}

// MsaResponse is the wire form of one /v1/msa result.
type MsaResponse struct {
	NumSequences int   `json:"num_sequences"`
	Score        int32 `json:"score"`
	// UpperBound is the Carrillo–Lipman sum of optimal pairwise scores;
	// OptimalityGap = UpperBound − Score bounds the distance to optimal
	// (0 certifies optimality).
	UpperBound    int32    `json:"upper_bound"`
	OptimalityGap int32    `json:"optimality_gap"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	Columns       int      `json:"columns"`
	Names         []string `json:"names"`
	Rows          []string `json:"rows"`
	// BatchedMerges counts merges that ran through a shared batch
	// submission (the LPT-scheduled fan-out path).
	BatchedMerges int  `json:"batched_merges"`
	Degraded      bool `json:"degraded,omitempty"`
	// GuideTree and Merges are included when the request sets explain.
	GuideTree string             `json:"guide_tree,omitempty"`
	Merges    []MsaMergeResponse `json:"merges,omitempty"`
}

// msaSequences materializes the request's family: inline residues or
// FASTA, validated against the alphabet and the server's caps.
func (s *Server) msaSequences(req *MsaRequest) ([]*repro.Sequence, error) {
	name := req.Alphabet
	if name == "" {
		name = "dna"
	}
	alpha, ok := repro.AlphabetByName(name)
	if !ok {
		return nil, badRequestf("unknown alphabet %q (want dna, rna, or protein)", name)
	}
	if len(req.Sequences) > 0 && req.FASTA != "" {
		return nil, badRequestf("give either sequences or fasta, not both")
	}
	var seqs []*repro.Sequence
	if req.FASTA != "" {
		var err error
		seqs, err = repro.ReadFASTA(strings.NewReader(req.FASTA), alpha)
		if err != nil {
			return nil, &badRequestError{err.Error()}
		}
	} else if len(req.Sequences) > 0 {
		if len(req.Names) > 0 && len(req.Names) != len(req.Sequences) {
			return nil, badRequestf("%d names for %d sequences", len(req.Names), len(req.Sequences))
		}
		for i, res := range req.Sequences {
			nm := fmt.Sprintf("s%d", i)
			if len(req.Names) > 0 {
				nm = req.Names[i]
			}
			sq, err := repro.NewSequence(nm, res, alpha)
			if err != nil {
				return nil, &badRequestError{fmt.Sprintf("sequence %d: %s", i, err)}
			}
			seqs = append(seqs, sq)
		}
	} else {
		return nil, badRequestf("no sequences: give sequences or fasta")
	}
	if len(seqs) < 2 {
		return nil, badRequestf("msa needs at least 2 sequences, have %d", len(seqs))
	}
	if len(seqs) > s.cfg.MaxMsaSequences {
		return nil, badRequestf("msa has %d sequences; the server caps families at %d",
			len(seqs), s.cfg.MaxMsaSequences)
	}
	for _, sq := range seqs {
		if sq.Len() == 0 {
			return nil, badRequestf("sequence %q is empty", sq.Name())
		}
		if sq.Len() > s.cfg.MaxSequenceLen {
			return nil, badRequestf("sequence %q has %d residues; the server caps sequences at %d",
				sq.Name(), sq.Len(), s.cfg.MaxSequenceLen)
		}
	}
	return seqs, nil
}

// msaOptions maps the wire knobs onto repro.MSAOptions by reusing the
// /v1/align option resolution for the shared fields, and rejects a scheme
// over another alphabet than the family's.
func (s *Server) msaOptions(req *MsaRequest, seqs []*repro.Sequence) (repro.MSAOptions, error) {
	base, err := s.resolveOptions(&AlignRequest{
		Scheme:         req.Scheme,
		Algorithm:      req.Algorithm,
		Workers:        req.Workers,
		DeadlineMS:     req.DeadlineMS,
		Fallback:       req.Fallback,
		MaxBytes:       req.MaxBytes,
		MaxMemoryBytes: req.MaxMemoryBytes,
	})
	if err != nil {
		return repro.MSAOptions{}, err
	}
	if err := checkSchemeAlphabet(base.Scheme, seqs[0].Alphabet()); err != nil {
		return repro.MSAOptions{}, err
	}
	return repro.MSAOptions{
		Options:      base,
		GuideK:       req.GuideK,
		RefineRounds: req.RefineRounds,
		SerialMerges: req.SerialMerges,
	}, nil
}

// planMsa plans the progressive run and enforces the server's lattice cap
// against the peak concurrent footprint of any one guide-tree level — the
// /v1/msa analogue of planItem's pre-queue 413.
func (s *Server) planMsa(seqs []*repro.Sequence, opt repro.MSAOptions) (*repro.MSAPlan, error) {
	mp, err := repro.PlanMSA(seqs, opt)
	if err != nil {
		return nil, err
	}
	if limit := s.cfg.MaxLatticeBytes; limit > 0 && mp.PeakLevelBytes > uint64(limit) {
		return nil, fmt.Errorf("planned msa peak level needs %d bytes; the server caps lattices at %d bytes: %w",
			mp.PeakLevelBytes, limit, repro.ErrTooLarge)
	}
	return mp, nil
}

// handleMsa serves POST /v1/msa: parse, plan (413 over the lattice cap
// before queueing), admit or shed, then run the progressive MSA on a
// dedicated run slot. MSA requests bypass the coalescer — they are never
// small — and the result cache.
func (s *Server) handleMsa(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	s.observeRetry(r)
	if fpAdmit.Fire() {
		s.injectUnavailable(w)
		return
	}
	var req MsaRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(err)
		writeError(w, errorStatus(err), err)
		return
	}
	seqs, err := s.msaSequences(&req)
	if err != nil {
		s.fail(err)
		writeError(w, errorStatus(err), err)
		return
	}
	opt, err := s.msaOptions(&req, seqs)
	if err != nil {
		s.fail(err)
		writeError(w, errorStatus(err), err)
		return
	}
	switch s.pressureLevel() {
	case pressureShed:
		s.shed(w)
		return
	case pressureDegrade:
		s.stats.memPressureDegraded.Add(1)
		opt.Options = s.degradedOptions(opt.Options)
	}
	mp, err := s.planMsa(seqs, opt)
	if err != nil {
		s.fail(err)
		writeError(w, errorStatus(err), err)
		return
	}
	if !s.gate.tryAdmit() {
		s.shed(w)
		return
	}
	defer s.gate.releaseAdmit()

	est := estGauge(mp.PeakLevelBytes)
	s.stats.estBytesInFlight.Add(est)
	s.stats.msaRequests.Add(1)
	start := time.Now()
	if err := s.gate.acquireRun(r.Context()); err != nil {
		s.stats.estBytesInFlight.Add(-est)
		writeError(w, errorStatus(err), err)
		return
	}
	res, err := repro.AlignMSA(r.Context(), seqs, opt)
	s.gate.releaseRun()
	s.stats.latency.record(time.Since(start))
	s.stats.estBytesInFlight.Add(-est)
	if err != nil {
		s.fail(err)
		writeError(w, errorStatus(err), err)
		return
	}
	s.stats.completed.Add(1)
	s.stats.msaCompleted.Add(1)
	s.stats.msaSequences.Add(int64(len(seqs)))
	s.stats.msaMerges.Add(int64(len(res.Merges)))
	s.stats.msaBatchedMerges.Add(int64(res.BatchedMerges))
	if res.Degraded {
		s.stats.degraded.Add(1)
	}
	for _, m := range res.Merges {
		s.stats.recordPlan(m.Plan)
	}
	writeJSON(w, http.StatusOK, msaResponse(res, req.Explain))
}

// handleMsaPlan serves POST /v1/msa/plan: the dry-run planning endpoint
// for progressive MSA, available during drain like /v1/plan.
func (s *Server) handleMsaPlan(w http.ResponseWriter, r *http.Request) {
	var req MsaRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	seqs, err := s.msaSequences(&req)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	opt, err := s.msaOptions(&req, seqs)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	mp, err := s.planMsa(seqs, opt)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, mp)
}

// degradedOptions is the MSA arm of memory-pressure degradation: impose
// the pressure guard's budget on the request the same way degradeForPressure
// does for /v1/align items.
func (s *Server) degradedOptions(opt repro.Options) repro.Options {
	item := repro.BatchItem{Opt: opt}
	s.degradeForPressure(&item)
	return item.Opt
}

// msaResponse converts a library MSAResult to the wire form.
func msaResponse(res *repro.MSAResult, explain bool) *MsaResponse {
	out := &MsaResponse{
		NumSequences:  res.Profile.NumRows(),
		Score:         res.Score,
		UpperBound:    res.UpperBound,
		OptimalityGap: res.OptimalityGap,
		ElapsedMS:     durMS(res.Elapsed),
		Columns:       res.Profile.Columns(),
		Names:         res.Profile.Names(),
		Rows:          res.Profile.RowStrings(),
		BatchedMerges: res.BatchedMerges,
		Degraded:      res.Degraded,
	}
	if explain {
		out.GuideTree = res.Tree.String()
		for _, m := range res.Merges {
			out.Merges = append(out.Merges, MsaMergeResponse{
				Level: m.Level, Members: m.Members, Out: m.Out, NWay: m.NWay,
				Algorithm: string(m.Algorithm), BatchSize: m.BatchSize,
				Degraded: m.Degraded, Plan: m.Plan,
			})
		}
	}
	return out
}
