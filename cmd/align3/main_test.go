package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	repro "repro"
	"strconv"
	"strings"
	"testing"
)

const testFASTA = ">s1\nACGTACGT\n>s2\nACGACGT\n>s3\nACGTACG\n"

func runCLI(t *testing.T, args []string, stdin string) string {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, strings.NewReader(stdin), &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestRunDefault(t *testing.T) {
	out := runCLI(t, nil, testFASTA)
	for _, want := range []string{"algorithm: parallel", "score:", "s1", "s2", "s3", "identity"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunQuiet(t *testing.T) {
	out := runCLI(t, []string{"-format", "quiet"}, testFASTA)
	if strings.TrimSpace(out) == "" || strings.Contains(out, "algorithm") {
		t.Fatalf("quiet output wrong: %q", out)
	}
}

func TestRunFormats(t *testing.T) {
	clustal := runCLI(t, []string{"-format", "clustal"}, testFASTA)
	if !strings.Contains(clustal, "CLUSTAL") {
		t.Errorf("clustal output missing header:\n%s", clustal)
	}
	fasta := runCLI(t, []string{"-format", "fasta"}, testFASTA)
	if strings.Count(fasta, ">") != 3 {
		t.Errorf("fasta output should have 3 records:\n%s", fasta)
	}
	stats := runCLI(t, []string{"-format", "stats"}, testFASTA)
	if !strings.Contains(stats, "columns:") {
		t.Errorf("stats output:\n%s", stats)
	}
}

func TestRunAlgorithmsAgree(t *testing.T) {
	var scores []string
	for _, algo := range []string{"full", "parallel", "linear", "parallel-linear", "diagonal", "pruned", "pruned-parallel"} {
		out := runCLI(t, []string{"-format", "quiet", "-algorithm", algo}, testFASTA)
		scores = append(scores, strings.TrimSpace(out))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] != scores[0] {
			t.Fatalf("algorithm %d score %s != %s", i, scores[i], scores[0])
		}
	}
}

func TestRunPrunedPrintsStats(t *testing.T) {
	out := runCLI(t, []string{"-algorithm", "pruned"}, testFASTA)
	if !strings.Contains(out, "carrillo-lipman") {
		t.Errorf("pruned run missing pruning stats:\n%s", out)
	}
}

// TestExplainRendersDowngrade: -explain renders each typed downgrade
// record as one "downgrade: from→to" line with its estimate and budget.
func TestExplainRendersDowngrade(t *testing.T) {
	fasta := ">a\n" + strings.Repeat("ACGT", 15) + "\n>b\n" + strings.Repeat("ACGA", 15) + "\n>c\n" + strings.Repeat("AGGT", 15) + "\n"
	out := runCLI(t, []string{"-explain", "-max-mem", "100000"}, fasta)
	want := regexp.MustCompile(`(?m)^downgrade: parallel→parallel-linear: est \d+ bytes over the 100000-byte budget$`)
	if !want.MatchString(out) {
		t.Fatalf("explain output missing the rendered downgrade:\n%s", out)
	}
}

// TestExplainRendersBandFirst: a long linear-gap triple plans the
// Carrillo–Lipman band in front of its dense fallback, and -explain names
// both.
func TestExplainRendersBandFirst(t *testing.T) {
	fasta := ">a\n" + strings.Repeat("ACGTTGCA", 18) + "\n>b\n" + strings.Repeat("ACGTTGCA", 17) + "ACGATGCA" +
		"\n>c\n" + "ACCTTGCA" + strings.Repeat("ACGTTGCA", 17) + "\n"
	out := runCLI(t, []string{"-explain"}, fasta)
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^algorithm: bounded `),
		regexp.MustCompile(`(?m)^band first: falls back to parallel if the counted band exceeds \d+ cells$`),
	} {
		if !want.MatchString(out) {
			t.Fatalf("explain output missing %s:\n%s", want, out)
		}
	}
}

func TestRunInputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.fasta")
	if err := os.WriteFile(path, []byte(testFASTA), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, []string{"-in", path, "-format", "quiet"}, "")
	if strings.TrimSpace(out) == "" {
		t.Fatal("no output from file input")
	}
}

func TestRunGapOverride(t *testing.T) {
	// Harsher gaps must not raise the score on inputs needing gaps.
	base := runCLI(t, []string{"-format", "quiet"}, testFASTA)
	harsh := runCLI(t, []string{"-format", "quiet", "-gap-extend", "-10"}, testFASTA)
	b, err := strconv.Atoi(strings.TrimSpace(base))
	if err != nil {
		t.Fatal(err)
	}
	h, err := strconv.Atoi(strings.TrimSpace(harsh))
	if err != nil {
		t.Fatal(err)
	}
	if h > b {
		t.Fatalf("harsher gaps raised score: %d > %d", h, b)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-alphabet", "klingon"},
		{"-scheme", "bogus"},
		{"-algorithm", "bogus"},
		{"-format", "bogus"},
		{"-in", "/nonexistent/file.fasta"},
		{"-notaflag"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, strings.NewReader(testFASTA), &out); err == nil {
			t.Errorf("run(%v): error expected", args)
		}
	}
}

func TestRunRejectsBadFASTA(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, strings.NewReader(">a\nAC\n"), &out); err == nil {
		t.Fatal("single-record FASTA accepted")
	}
}

func TestRunJSONFormat(t *testing.T) {
	out := runCLI(t, []string{"-format", "json", "-algorithm", "pruned"}, testFASTA)
	var rep struct {
		Algorithm    string    `json:"algorithm"`
		Score        int32     `json:"score"`
		Columns      int       `json:"columns"`
		Rows         [3]string `json:"rows"`
		Consensus    string    `json:"consensus"`
		Conservation string    `json:"conservation"`
		Prune        *struct {
			EvaluatedCells int64 `json:"EvaluatedCells"`
		} `json:"prune"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	// "pruned" is an alias: the report names the kernel that ran.
	if rep.Algorithm != "bounded" || rep.Columns == 0 {
		t.Fatalf("report content wrong: %+v", rep)
	}
	if len(rep.Rows[0]) != rep.Columns || len(rep.Conservation) != rep.Columns {
		t.Fatalf("row/conservation lengths inconsistent: %+v", rep)
	}
	if rep.Prune == nil || rep.Prune.EvaluatedCells <= 0 {
		t.Fatalf("prune stats missing from JSON: %s", out)
	}
}

func TestRunGzipInput(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(testFASTA)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.fasta.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	gz := runCLI(t, []string{"-in", path, "-format", "quiet"}, "")
	plain := runCLI(t, []string{"-format", "quiet"}, testFASTA)
	if gz != plain {
		t.Fatalf("gzip input score %q != plain %q", gz, plain)
	}
}

func TestRunBothStrands(t *testing.T) {
	// s3 is the reverse complement of a sequence similar to s1/s2: on the
	// given strand it aligns poorly, on the flipped strand well.
	in := ">s1\nACGTACGTACGTACGT\n>s2\nACGTACGTACGTACGT\n>s3\nACGTACGTACGTACGT\n"
	// reverse complement of s1 == ACGTACGTACGTACGT reversed-complemented:
	// complement(TGCATGCA...)... compute via library in the assertion below.
	fwd := runCLI(t, []string{"-format", "quiet"}, in)
	both := runCLI(t, []string{"-format", "quiet", "-both-strands"}, in)
	f, err := strconv.Atoi(strings.TrimSpace(fwd))
	if err != nil {
		t.Fatal(err)
	}
	b, err := strconv.Atoi(strings.TrimSpace(both))
	if err != nil {
		t.Fatal(err)
	}
	if b < f {
		t.Fatalf("both-strands score %d below single-strand %d", b, f)
	}

	// Now flip s3 so that only the reverse complement matches.
	flipped := ">s1\nAAAATTTTAAAACCCC\n>s2\nAAAATTTTAAAACCCC\n>s3\nAAAATTTTAAAACCCC\n"
	tr, err := seqReadTriple(flipped)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := tr.C.ReverseComplement()
	if err != nil {
		t.Fatal(err)
	}
	mixed := ">s1\nAAAATTTTAAAACCCC\n>s2\nAAAATTTTAAAACCCC\n>s3\n" + rc.String() + "\n"
	single := runCLI(t, []string{"-format", "quiet"}, mixed)
	dual := runCLI(t, []string{"-format", "quiet", "-both-strands"}, mixed)
	s, _ := strconv.Atoi(strings.TrimSpace(single))
	d, _ := strconv.Atoi(strings.TrimSpace(dual))
	if d <= s {
		t.Fatalf("flipped strand: both-strands %d should beat single %d", d, s)
	}
}

func seqReadTriple(in string) (repro.Triple, error) {
	return repro.ReadTripleFASTA(strings.NewReader(in), repro.DNA)
}

func TestRunBothStrandsProteinErrors(t *testing.T) {
	in := ">a\nMKT\n>b\nMKT\n>c\nMKT\n"
	var out strings.Builder
	if err := run(context.Background(), []string{"-alphabet", "protein", "-both-strands"}, strings.NewReader(in), &out); err == nil {
		t.Fatal("protein both-strands accepted")
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"-format", "quiet"}, strings.NewReader(testFASTA), &out)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled run wrote partial output: %q", out.String())
	}
}

func TestRunTimeoutWithoutFallbackFails(t *testing.T) {
	big := hugeFASTA(220)
	var out strings.Builder
	err := run(context.Background(), []string{"-format", "quiet", "-timeout", "1ns"},
		strings.NewReader(big), &out)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout run: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunTimeoutWithFallbackDegrades(t *testing.T) {
	big := hugeFASTA(220)
	out := runCLI(t, []string{"-format", "stats", "-timeout", "1ns", "-fallback"}, big)
	if !strings.Contains(out, "degraded:") {
		t.Fatalf("degraded run missing degraded line:\n%s", out)
	}

	jout := runCLI(t, []string{"-format", "json", "-timeout", "1ns", "-fallback"}, big)
	var rep jsonReport
	if err := json.Unmarshal([]byte(jout), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedCause == "" {
		t.Fatalf("json report not marked degraded: %+v", rep)
	}
	if rep.Algorithm != string(repro.AlgorithmCenterStarRefined) {
		t.Fatalf("degraded algorithm = %q, want center-star-refined", rep.Algorithm)
	}
}

// hugeFASTA builds a triple large enough that exact alignment cannot finish
// within a nanosecond deadline.
func hugeFASTA(n int) string {
	row := strings.Repeat("ACGT", n/4+1)[:n]
	return ">s1\n" + row + "\n>s2\n" + row + "\n>s3\n" + row + "\n"
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errors.New("generic failure"), 1},
		{repro.ErrStalled, 3},
		{&repro.StallError{Budget: 1, Completed: 1, Total: 2}, 3},
		{repro.ErrTooLarge, 4},
		{fmt.Errorf("align: %w", repro.ErrTooLarge), 4},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

const testFamily6 = ">f1\nACGTACGTAC\n>f2\nACGTACGAAC\n>f3\nACGGACGTAC\n>f4\nACGTACCTAC\n>f5\nAGGTACGTAC\n>f6\nACGTACGTCC\n"

func TestRunMsaPretty(t *testing.T) {
	out := runCLI(t, []string{"-msa"}, testFamily6)
	for _, want := range []string{"sequences: 6", "score:", "upper bound:", "merges:", "f1", "f6"} {
		if !strings.Contains(out, want) {
			t.Errorf("msa output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMsaTripleMatchesDefault(t *testing.T) {
	// Three records through -msa produce exactly the default mode's score.
	direct := strings.TrimSpace(runCLI(t, []string{"-format", "quiet"}, testFASTA))
	viaMsa := strings.TrimSpace(runCLI(t, []string{"-msa", "-format", "quiet"}, testFASTA))
	if direct != viaMsa {
		t.Fatalf("-msa score %s != default score %s", viaMsa, direct)
	}
}

func TestRunMsaFormats(t *testing.T) {
	fasta := runCLI(t, []string{"-msa", "-format", "fasta"}, testFamily6)
	if strings.Count(fasta, ">") != 6 {
		t.Errorf("msa fasta output should have 6 records:\n%s", fasta)
	}
	var rep struct {
		NumSequences int      `json:"num_sequences"`
		Rows         []string `json:"rows"`
		UpperBound   int32    `json:"upper_bound"`
		Score        int32    `json:"score"`
	}
	jsonOut := runCLI(t, []string{"-msa", "-format", "json"}, testFamily6)
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("msa json: %v\n%s", err, jsonOut)
	}
	if rep.NumSequences != 6 || len(rep.Rows) != 6 || rep.Score > rep.UpperBound {
		t.Fatalf("msa json report wrong: %+v", rep)
	}
}

func TestRunMsaExplain(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-msa", "-explain"}, strings.NewReader(testFamily6), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"guide tree over 6 leaves", "merge level=", "peak_level_bytes="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("msa explain missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMsaSerialMerges(t *testing.T) {
	fanned := strings.TrimSpace(runCLI(t, []string{"-msa", "-format", "quiet"}, testFamily6))
	serial := strings.TrimSpace(runCLI(t, []string{"-msa", "-format", "quiet", "-serial-merges"}, testFamily6))
	if fanned != serial {
		t.Fatalf("serial merges changed the score: %s vs %s", serial, fanned)
	}
}
