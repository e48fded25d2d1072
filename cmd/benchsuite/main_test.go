package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The smoke tests run the cheapest experiments at quick sizes; they verify
// the drivers execute end to end and emit the expected table structure.

func TestRunT2(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-exp", "t2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benchsuite:", "T2:", "full bytes", "ratio", "expected:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-reps", "1", "-exp", "t2,t3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "T2:") || !strings.Contains(out.String(), "T3:") {
		t.Fatalf("expected both tables:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "zzz"}, &out); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-notaflag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.title == "" || e.run == nil {
			t.Errorf("experiment %q incomplete", e.id)
		}
	}
	if len(experiments) != 14 {
		t.Errorf("expected 14 experiments, found %d", len(experiments))
	}
}

// TestBenchJSON drives the -benchjson path end to end: an explicit path
// forces emission even for a partial run, and the document must parse with
// sane per-kernel metrics.
func TestBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	var out strings.Builder
	if err := run([]string{"-quick", "-reps", "1", "-exp", "t2", "-benchjson", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH json does not parse: %v", err)
	}
	if rep.Rev == "" || rep.GoVersion == "" || rep.GOMAXPROCS < 1 || rep.NumCPU < 1 || rep.CPU == "" {
		t.Fatalf("missing environment metadata: %+v", rep)
	}
	want := map[string]bool{"full-packed": false, "full-packed-w16": false,
		"parallel-packed": false, "parallel-packed-w16": false,
		"score": false, "linear": false, "affine7": false,
		"pairwise-global": false, "pairwise-gotoh": false,
		"bounded": false, "astar": false,
		"bounded-id60": false, "bounded-id80": false, "bounded-id95": false,
		"full-packed-id80": false}
	// The bounded-search rows carry an evaluated fraction; every one of
	// them must report a meaningful band (0 < fraction <= 1).
	fractional := map[string]bool{"bounded": true, "astar": true,
		"bounded-id60": true, "bounded-id80": true, "bounded-id95": true}
	for _, k := range rep.Kernels {
		if _, ok := want[k.Kernel]; !ok {
			t.Errorf("unexpected kernel %q", k.Kernel)
			continue
		}
		want[k.Kernel] = true
		if k.McellsPerS <= 0 || k.NsPerOp <= 0 || k.Cells <= 0 || k.PeakLatticeBytes <= 0 {
			t.Errorf("kernel %q has degenerate metrics: %+v", k.Kernel, k)
		}
		if fractional[k.Kernel] != (k.EvaluatedFraction > 0 && k.EvaluatedFraction <= 1) {
			t.Errorf("kernel %q has evaluated_fraction %v", k.Kernel, k.EvaluatedFraction)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("kernel %q missing from report", name)
		}
	}
}

// TestBenchJSONOffAndAuto pins the gating: "off" never writes, and "auto"
// does not write for a partial experiment selection.
func TestBenchJSONOffAndAuto(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	for _, flagVal := range []string{"off", "auto"} {
		var out strings.Builder
		if err := run([]string{"-quick", "-exp", "t2", "-benchjson", flagVal}, &out); err != nil {
			t.Fatal(err)
		}
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Fatalf("-benchjson %s wrote %v for a partial run", flagVal, matches)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-exp", "t2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# T2:") || !strings.Contains(out.String(), "n,full bytes,linear bytes,ratio") {
		t.Fatalf("CSV output malformed:\n%s", out.String())
	}
}

func TestRunF8(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-reps", "1", "-exp", "f8"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F8:", "steal-rate", "tile"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunF10(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-reps", "1", "-exp", "f10"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F10:", "fanned time", "serial time", "gap"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

// TestBaselineDiff drives -baseline end to end: against a fabricated
// baseline with absurdly high rates every kernel is a >10% regression, and
// the diff warns without failing the run.
func TestBaselineDiff(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_base.json")
	base := benchReport{Rev: "testbase", Kernels: []kernelMetric{
		{Kernel: "full-packed", McellsPerS: 1e9},
		{Kernel: "parallel-packed", McellsPerS: 1e9},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "BENCH_cur.json")
	var out strings.Builder
	if err := run([]string{"-quick", "-reps", "1", "-exp", "t2",
		"-benchjson", outPath, "-baseline", basePath}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "baseline diff vs") || !strings.Contains(s, "testbase") {
		t.Fatalf("no baseline diff emitted:\n%s", s)
	}
	if !strings.Contains(s, "REGRESSION") || !strings.Contains(s, "warning:") {
		t.Fatalf("fabricated 1e9 Mcells/s baseline did not flag regressions:\n%s", s)
	}
	if !strings.Contains(s, "(no baseline)") {
		t.Fatalf("kernels absent from the baseline should be marked:\n%s", s)
	}
	// The fabricated baseline predates the host fields: it still parses,
	// and the diff prints both hosts.
	if !strings.Contains(s, "baseline host: unrecorded") || !strings.Contains(s, "current host:  num_cpu=") {
		t.Fatalf("baseline diff does not print both hosts:\n%s", s)
	}
}

// TestResolveBaselineAuto pins the -baseline auto selection rules: inside
// this repository the committed baseline wins over untracked BENCH files,
// and outside git the newest file by mtime wins with the output path
// excluded.
func TestResolveBaselineAuto(t *testing.T) {
	// In the repo: must resolve to a committed BENCH_*.json (never the
	// outPath we are about to write).
	got, err := resolveBaseline("BENCH_ci.json")
	if err != nil {
		t.Fatal(err)
	}
	if tracked := gitTrackedBaselines(); len(tracked) > 0 {
		found := false
		for _, c := range tracked {
			if c == got {
				found = true
			}
		}
		if !found {
			t.Errorf("resolveBaseline = %q, not among committed baselines %v", got, tracked)
		}
	}

	// Outside git: mtime ordering with the output path excluded.
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd) //nolint:errcheck
	old := time.Now().Add(-time.Hour)
	for name, mtime := range map[string]time.Time{
		"BENCH_aaa.json": old,
		"BENCH_new.json": time.Now(),
		"BENCH_out.json": time.Now().Add(time.Hour), // the file being written
	} {
		if err := os.WriteFile(name, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(name, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	got, err = resolveBaseline("BENCH_out.json")
	if err != nil {
		t.Fatal(err)
	}
	if got != "BENCH_new.json" {
		t.Errorf("resolveBaseline outside git = %q, want BENCH_new.json", got)
	}
}

// TestRunBaselineAutoWithoutBaselines checks that -baseline auto degrades
// to a notice, not an error, when no baseline exists.
func TestRunBaselineAutoWithoutBaselines(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd) //nolint:errcheck
	var out strings.Builder
	if err := run([]string{"-quick", "-reps", "1", "-exp", "t2",
		"-benchjson", "BENCH_out.json", "-baseline", "auto"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no committed BENCH_*.json found") {
		t.Fatalf("missing skip notice:\n%s", out.String())
	}
}
