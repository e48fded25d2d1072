// Command alignbench is the benchmark of the alignd serving stack. It
// builds nothing itself (run.sh builds alignd and this program from the
// source tree), boots the real cmd/alignd binary as its own process,
// drives it over loopback HTTP through the client package with retries
// off, checks every answer, and prints one JSON result line:
//
//	bash alignbench/run.sh --workload align-small-closed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run is repeated with spans recorded around every call the benchmark
// makes into a layer, and the result holds the per-layer metrics.
// --steady N runs the workload N times as separate processes and prints
// the median and quartiles of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alignbench:", err)
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	alignd   string
	out      string
	steady   int
	record   string
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("alignbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal run length; fixes the measured request count")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.alignd, "alignd", "", "path to the alignd binary")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for logs and traces")
	fs.IntVar(&o.steady, "steady", 0, "run the workload this many times (seeds 1..N) and report medians and quartiles")
	fs.StringVar(&o.record, "record", "", "with -steady, also write the host-stamped summary to this file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if o.alignd == "" {
		return 2, errors.New("-alignd is required (run through run.sh)")
	}
	if o.seconds < 1 {
		return 2, errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(filepath.Join(o.out, "logs"), 0o755); err != nil {
		return 1, err
	}
	if o.steady > 0 {
		return steady(o, stdout)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return 2, err
	}
	host := stamp()
	fmt.Fprintf(stdout, "host: %s\n", host)

	var res *result
	if o.trace == 1 {
		res, err = runTraced(w, o, stdout)
	} else {
		var e2e *endToEnd
		e2e, err = runEndToEnd(w, o, nil)
		if e2e != nil {
			e2e.print(stdout, w)
			res = e2e.result()
		}
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, errors.New("wrong answers; see the lines above")
	}
	return 0, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
