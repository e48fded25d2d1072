// Command align3 computes an optimal (or heuristic) alignment of the three
// sequences in a FASTA file and prints it in one of several formats.
//
// Usage:
//
//	align3 -in triple.fasta -alphabet dna -algorithm parallel -workers 8
//	seqgen -n 100 | align3 -format clustal
//	align3 -in triple.fasta.gz -both-strands -format json
//	align3 -in triple.fasta -timeout 30s -fallback
//	align3 -in triple.fasta -explain
//	align3 -in triple.fasta -max-mem 64000000
//	align3 -msa -in family.fasta
//	align3 -msa -in family.fasta -explain
//
// Exact algorithms: parallel, parallel-linear, bounded, astar,
// affine-parallel, affine-linear. Each takes its parallelism from
// -workers; -workers 1 runs one thread. The names full, full-packed,
// parallel-packed, diagonal, linear, affine, pruned and pruned-parallel
// are aliases: they run, and report, the kernel they name.
// Heuristics: center-star, center-star-refined, progressive.
// Formats: pretty (default), clustal, fasta, stats, json, quiet.
// Gzip-compressed input is detected automatically; -both-strands also
// tries the third sequence's reverse complement.
//
// -msa switches align3 from exactly three records to 2–64: a guide tree
// groups the family into triples, each triple is merged by the exact
// 3-way engine on profile consensus rows, and the result reports the
// Carrillo–Lipman optimality gap. With -explain the guide tree and each
// merge's execution plan are printed instead of aligning. -format
// supports pretty, fasta, json, and quiet in this mode; three-sequence
// MSA input produces exactly the alignment the default mode computes.
//
// Interrupting align3 (Ctrl-C / SIGTERM) cancels the alignment
// cooperatively: the worker pool drains, a "cancelled" error is printed,
// and the process exits non-zero — no partial output is emitted.
// -timeout bounds the exact computation the same way. With -fallback the
// deadline (or an over-cap lattice) degrades to the center-star-refined
// heuristic instead of failing: the process exits zero, the pretty and
// stats formats print a "degraded:" line with the cause, and the json
// format carries "degraded": true — screening pipelines should check that
// flag before treating the score as optimal.
//
// -explain prints the execution plan — the kernel the planner would
// dispatch, its tile shape and worker count, and the estimated cells,
// bytes, and duration — without aligning anything. -max-mem sets a soft
// memory budget (Options.MaxMemoryBytes): the planner downgrades to a
// smaller-memory kernel (full lattice → linear space → heuristic last
// resort) instead of rejecting, and each step shows up in the plan's
// downgrades (and in the json format's "plan" object).
//
// Exit codes distinguish the failure classes a screening pipeline wants
// to branch on:
//
//	0  success (including -fallback degraded results — check the
//	   "degraded" flag before treating the score as optimal)
//	1  generic failure: bad input, unknown flags, cancelled, or any
//	   other alignment error
//	3  the scheduler's watchdog stalled the run (repro.ErrStalled):
//	   a wedged worker, not a slow input — retrying may succeed,
//	   unlike exit 4
//	4  the alignment exceeds the memory budget (repro.ErrTooLarge)
//	   and no fallback was allowed: retrying the same input cannot
//	   succeed without raising -max-mem or adding -fallback
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	repro "repro"
	"repro/internal/prof"
	"repro/internal/seq"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			err = fmt.Errorf("align3: cancelled (interrupt received)")
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a run error to the documented exit code: stalls and
// memory exhaustion are distinguishable so pipelines can retry the former
// and re-budget the latter; everything else is the generic 1.
func exitCode(err error) int {
	switch {
	case errors.Is(err, repro.ErrStalled):
		return 3
	case errors.Is(err, repro.ErrTooLarge):
		return 4
	}
	return 1
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("align3", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		in        = fs.String("in", "-", "input FASTA with exactly 3 records ('-' = stdin)")
		alphabet  = fs.String("alphabet", "dna", "residue alphabet: dna, rna, protein")
		scheme    = fs.String("scheme", "", "scoring scheme: dna, blosum62, blosum80, pam250 (default per alphabet)")
		algorithm = fs.String("algorithm", "", "algorithm (default auto); see package doc for the list")
		workers   = fs.Int("workers", 0, "goroutine pool size (0 = GOMAXPROCS)")
		block     = fs.Int("block", 0, "wavefront tile edge (0 = default)")
		gapOpen   = fs.Int("gap-open", 1, "gap-open penalty override (≤ 0 to set; 1 = keep scheme default)")
		gapExtend = fs.Int("gap-extend", 1, "gap-extend penalty override (≤ 0 to set; 1 = keep scheme default)")
		width     = fs.Int("width", 60, "output block width")
		format    = fs.String("format", "pretty", "output format: pretty, clustal, fasta, stats, json, quiet")
		bothStr   = fs.Bool("both-strands", false, "also try the third sequence's reverse complement (DNA/RNA) and keep the better alignment")
		timeout   = fs.Duration("timeout", 0, "wall-clock budget per alignment (0 = none); exceeded deadlines fail unless -fallback is set")
		fallback  = fs.Bool("fallback", false, "degrade to center-star-refined when the exact algorithm exceeds -timeout or the memory cap")
		maxMem    = fs.Int64("max-mem", 0, "soft memory budget in bytes: plan a smaller-memory kernel instead of rejecting (0 = none)")
		explain   = fs.Bool("explain", false, "print the execution plan and exit without aligning")
		msaMode   = fs.Bool("msa", false, "progressive MSA mode: accept 2-64 FASTA records instead of exactly 3")
		guideK    = fs.Int("guide-k", 0, "MSA guide-tree k-mer size (0 = default)")
		refineN   = fs.Int("refine-rounds", 0, "MSA refinement rounds (0 = default, negative disables)")
		serialMrg = fs.Bool("serial-merges", false, "run MSA merges serially instead of fanning through the batch scheduler")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("align3: %w", err)
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fmt.Errorf("align3: %w", err)
	}
	defer stopProf()

	alpha, err := alphabetByName(*alphabet)
	if err != nil {
		return err
	}
	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	r, err = seq.MaybeDecompress(r)
	if err != nil {
		return err
	}
	opt := repro.Options{
		Algorithm:      repro.Algorithm(*algorithm),
		Workers:        *workers,
		BlockSize:      *block,
		MaxMemoryBytes: *maxMem,
		Deadline:       *timeout,
		Fallback:       *fallback,
	}
	if *scheme != "" {
		s, ok := repro.SchemeByName(*scheme)
		if !ok {
			return fmt.Errorf("align3: unknown scheme %q", *scheme)
		}
		opt.Scheme = s
	}
	if *gapOpen <= 0 || *gapExtend <= 0 {
		base := opt.Scheme
		if base == nil {
			base, err = repro.DefaultScheme(alpha)
			if err != nil {
				return err
			}
		}
		open, extend := int(base.GapOpen()), int(base.GapExtend())
		if *gapOpen <= 0 {
			open = *gapOpen
		}
		if *gapExtend <= 0 {
			extend = *gapExtend
		}
		opt.Scheme, err = base.WithGaps(open, extend)
		if err != nil {
			return err
		}
	}

	if *msaMode {
		mo := repro.MSAOptions{
			Options:      opt,
			GuideK:       *guideK,
			RefineRounds: *refineN,
			SerialMerges: *serialMrg,
		}
		return runMsaMode(ctx, stdout, r, alpha, mo, *format, *width, *explain)
	}

	tr, err := repro.ReadTripleFASTA(r, alpha)
	if err != nil {
		return err
	}

	if *explain {
		pl, err := repro.PlanAlign(tr, opt)
		if err != nil {
			return err
		}
		printPlan(stdout, pl)
		return nil
	}

	res, err := repro.AlignContext(ctx, tr, opt)
	if err != nil {
		return err
	}
	if *bothStr {
		rc, err := tr.C.ReverseComplement()
		if err != nil {
			return fmt.Errorf("align3: -both-strands: %w", err)
		}
		resRC, err := repro.AlignContext(ctx, repro.Triple{A: tr.A, B: tr.B, C: rc}, opt)
		if err != nil {
			return err
		}
		if resRC.Score > res.Score {
			res = resRC
		}
	}
	switch *format {
	case "quiet":
		fmt.Fprintln(stdout, res.Score)
	case "json":
		return writeJSON(stdout, res)
	case "clustal":
		return repro.WriteClustal(stdout, res.Alignment)
	case "fasta":
		return repro.WriteAlignedFASTA(stdout, res.Alignment, *width)
	case "stats":
		printStats(stdout, res)
	case "pretty":
		fmt.Fprintf(stdout, "algorithm: %s   elapsed: %s   score: %d\n\n",
			res.Algorithm, res.Elapsed.Round(res.Elapsed/100+1), res.Score)
		if err := res.Format(stdout, *width); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		printStats(stdout, res)
	default:
		return fmt.Errorf("align3: unknown format %q", *format)
	}
	return nil
}

// jsonReport is the machine-readable output of -format json.
type jsonReport struct {
	Algorithm     string               `json:"algorithm"`
	Score         int32                `json:"score"`
	ElapsedMS     float64              `json:"elapsed_ms"`
	Columns       int                  `json:"columns"`
	Rows          [3]string            `json:"rows"`
	Names         [3]string            `json:"names"`
	Consensus     string               `json:"consensus"`
	Conservation  string               `json:"conservation"`
	Stats         repro.AlignmentStats `json:"stats"`
	Prune         *repro.PruneStats    `json:"prune,omitempty"`
	Plan          *repro.Plan          `json:"plan,omitempty"`
	Degraded      bool                 `json:"degraded,omitempty"`
	DegradedCause string               `json:"degraded_cause,omitempty"`
}

func writeJSON(w io.Writer, res *repro.Result) error {
	ra, rb, rc := res.Rows()
	rep := jsonReport{
		Algorithm:    string(res.Algorithm),
		Score:        res.Score,
		ElapsedMS:    float64(res.Elapsed.Microseconds()) / 1000,
		Columns:      res.Columns(),
		Rows:         [3]string{ra, rb, rc},
		Names:        [3]string{res.Triple.A.Name(), res.Triple.B.Name(), res.Triple.C.Name()},
		Consensus:    res.Consensus(),
		Conservation: res.Conservation(),
		Stats:        res.ComputeStats(),
		Prune:        res.Prune,
		Plan:         res.Plan,
	}
	if res.Degraded {
		rep.Degraded = true
		if res.DegradedCause != nil {
			rep.DegradedCause = res.DegradedCause.Error()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func printStats(w io.Writer, res *repro.Result) {
	st := res.ComputeStats()
	fmt.Fprintf(w, "score: %d   columns: %d   full columns: %d   3-way identity: %.1f%%   pair identity: %.1f%%   gap fraction: %.1f%%\n",
		res.Score, st.Columns, st.FullColumns, 100*st.Identity3, 100*st.PairIdentity, 100*st.GapFraction)
	if res.Prune != nil {
		fmt.Fprintf(w, "carrillo-lipman: evaluated %d of %d cells (%.1f%%), lower bound %d\n",
			res.Prune.EvaluatedCells, res.Prune.TotalCells, 100*res.Prune.Fraction(), res.Prune.LowerBound)
	}
	if res.Degraded {
		fmt.Fprintf(w, "degraded: exact alignment unavailable (%v); score is heuristic, not optimal\n",
			res.DegradedCause)
	}
}

// printPlan renders one execution plan for -explain.
func printPlan(w io.Writer, pl *repro.Plan) {
	fmt.Fprintf(w, "algorithm: %s   workers: %d", pl.Algorithm, pl.Workers)
	if pl.CellWidthBits > 0 {
		fmt.Fprintf(w, "   cells: int%d", pl.CellWidthBits)
	}
	if pl.TileDims != [3]int{} {
		fmt.Fprintf(w, "   tile: %dx%dx%d", pl.TileDims[0], pl.TileDims[1], pl.TileDims[2])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "estimate: %d cells   %d bytes   %.1f Mcells/s   ~%s\n",
		pl.EstCells, pl.EstBytes, pl.EstMcellsPerSec, pl.EstDuration.Round(pl.EstDuration/100+1))
	if pl.EstEvaluatedCells > 0 {
		fmt.Fprintf(w, "est_evaluated_cells: %d (Carrillo–Lipman bounded search, planned at the whole lattice: the band is known only at run time)\n",
			pl.EstEvaluatedCells)
	}
	if pl.Fallback != "" {
		fmt.Fprintf(w, "band first: falls back to %s if the counted band exceeds %d cells\n", pl.Fallback, pl.MaxBandCells)
	}
	for _, d := range pl.Downgrades {
		if d.BandCells > 0 {
			fmt.Fprintf(w, "switch: %s→%s: band of %d cells against a %d-cell ceiling\n", d.From, d.To, d.BandCells, pl.MaxBandCells)
			continue
		}
		if d.Forced {
			fmt.Fprintf(w, "downgrade: %s→%s: forced by fault point plan.downgrade\n", d.From, d.To)
			continue
		}
		fmt.Fprintf(w, "downgrade: %s→%s: est %d bytes over the %d-byte budget\n", d.From, d.To, d.EstBytes, d.BudgetBytes)
	}
	if pl.Degraded {
		fmt.Fprintln(w, "degraded: no exact kernel fits the budget; the planned score is a heuristic lower bound")
	}
}

// runMsaMode reads 2-64 FASTA records and runs the guide-tree progressive
// MSA. With explain it prints the guide tree and each merge's execution
// plan instead of aligning.
func runMsaMode(ctx context.Context, stdout io.Writer, r io.Reader, alpha *seq.Alphabet, opt repro.MSAOptions, format string, width int, explain bool) error {
	seqs, err := repro.ReadFASTA(r, alpha)
	if err != nil {
		return err
	}
	if explain {
		mp, err := repro.PlanMSA(seqs, opt)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, mp.Tree.String())
		for _, m := range mp.Merges {
			fmt.Fprintf(stdout, "merge level=%d members=%v out=%d n_way=%d est_bytes=%d\n",
				m.Level, m.Members, m.Out, m.NWay, m.EstBytes)
			if m.Plan != nil {
				printPlan(stdout, m.Plan)
			}
		}
		fmt.Fprintf(stdout, "peak_level_bytes=%d total_est_cells=%d\n", mp.PeakLevelBytes, mp.TotalEstCells)
		return nil
	}
	res, err := repro.AlignMSA(ctx, seqs, opt)
	if err != nil {
		return err
	}
	switch format {
	case "quiet":
		fmt.Fprintln(stdout, res.Score)
	case "json":
		return writeMsaJSON(stdout, res)
	case "fasta":
		return repro.WriteAlignedFASTAMulti(stdout, res.Profile, width)
	case "pretty":
		fmt.Fprintf(stdout, "sequences: %d   elapsed: %s   score: %d   upper bound: %d   gap: %d\n\n",
			res.Profile.NumRows(), res.Elapsed.Round(res.Elapsed/100+1), res.Score, res.UpperBound, res.OptimalityGap)
		if err := res.Profile.Format(stdout, width); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "merges: %d (%d batched)   columns: %d\n",
			len(res.Merges), res.BatchedMerges, res.Profile.Columns())
		if res.Degraded {
			fmt.Fprintln(stdout, "degraded: one or more merges fell back to a heuristic; the score is not certified")
		}
	default:
		return fmt.Errorf("align3: format %q not supported in -msa mode (want pretty, fasta, json, or quiet)", format)
	}
	return nil
}

// msaJSONReport is the machine-readable output of -msa -format json.
type msaJSONReport struct {
	NumSequences  int      `json:"num_sequences"`
	Score         int32    `json:"score"`
	UpperBound    int32    `json:"upper_bound"`
	OptimalityGap int32    `json:"optimality_gap"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	Columns       int      `json:"columns"`
	Names         []string `json:"names"`
	Rows          []string `json:"rows"`
	BatchedMerges int      `json:"batched_merges"`
	Degraded      bool     `json:"degraded,omitempty"`
}

func writeMsaJSON(w io.Writer, res *repro.MSAResult) error {
	rep := msaJSONReport{
		NumSequences:  res.Profile.NumRows(),
		Score:         res.Score,
		UpperBound:    res.UpperBound,
		OptimalityGap: res.OptimalityGap,
		ElapsedMS:     float64(res.Elapsed.Microseconds()) / 1000,
		Columns:       res.Profile.Columns(),
		Names:         res.Profile.Names(),
		Rows:          res.Profile.RowStrings(),
		BatchedMerges: res.BatchedMerges,
		Degraded:      res.Degraded,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func alphabetByName(name string) (*seq.Alphabet, error) {
	if alpha, ok := repro.AlphabetByName(name); ok {
		return alpha, nil
	}
	return nil, fmt.Errorf("align3: unknown alphabet %q (want dna, rna, or protein)", name)
}
