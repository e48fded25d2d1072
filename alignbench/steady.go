package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadySummary is one metric's distribution over the steadiness runs.
type steadySummary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3 − Q1) ÷ median
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// steadyRecord is the host-stamped output of a steadiness check.
type steadyRecord struct {
	Host      hostStamp                           `json:"host"`
	Seconds   int                                 `json:"seconds"`
	Runs      int                                 `json:"runs"`
	Workloads map[string]map[string]steadySummary `json:"workloads"`
}

// steady runs each requested workload o.steady times, each as its own
// process with seeds 1..N, and prints every metric's median and quartiles
// (Python statistics.quantiles, n=4).
func steady(o options, stdout io.Writer) (int, error) {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	rec := steadyRecord{Host: stamp(), Seconds: o.seconds, Runs: o.steady, Workloads: map[string]map[string]steadySummary{}}
	fmt.Fprintf(stdout, "host: %s\n", rec.Host)
	for _, name := range names {
		if _, err := workloadByName(name); err != nil {
			return 2, err
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= o.steady; seed++ {
			res, extra, err := runChild(o, name, seed)
			if err != nil {
				return 1, fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			for k, m := range extra {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			if !res.Correct || res.Failed != 0 {
				return 1, fmt.Errorf("%s seed %d: correct=%t failed=%d", name, seed, res.Correct, res.Failed)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		sums := map[string]steadySummary{}
		fmt.Fprintf(stdout, "%s (%d runs, %ds):\n", name, o.steady, o.seconds)
		for _, k := range sortedKeys(values) {
			q := quartiles(values[k])
			sm := steadySummary{Median: median(append([]float64(nil), values[k]...)), Q1: q[0], Q3: q[2], Unit: units[k], Values: values[k]}
			if sm.Median != 0 {
				sm.Spread = (sm.Q3 - sm.Q1) / sm.Median
			}
			sums[k] = sm
			fmt.Fprintf(stdout, "  %-16s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.3f\n", k, sm.Median, sm.Unit, sm.Q1, sm.Q3, sm.Spread)
		}
		rec.Workloads[name] = sums
	}
	if o.record != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.record, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	return 0, nil
}

// Report lines runChild parses: the host's steal time, the calibration
// factors (the line goes on with every burst) and each uncalibrated timing.
const (
	stealPrefix        = "host steal:"
	calibFormat        = "calibration: wall factor %f, cpu factor %f"
	uncalibratedPrefix = "uncalibrated "
)

// runChild runs one benchmark invocation as a separate process and parses
// its result line and, from its report, the host steal time, the
// calibration factors and the uncalibrated timings.
func runChild(o options, name string, seed int) (*result, map[string]metric, error) {
	args := []string{
		"-alignd", o.alignd, "-out", o.out,
		"--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
	}
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%w\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	extra := map[string]metric{}
	for _, line := range lines {
		var v, c float64
		var k, unit string
		if rest, ok := strings.CutPrefix(line, stealPrefix); ok {
			fmt.Sscan(rest, &v)
			extra["host_steal_pct"] = metric{v, "%"}
		}
		if _, err := fmt.Sscanf(line, calibFormat, &v, &c); err == nil {
			extra["calib.wall_factor"], extra["calib.cpu_factor"] = metric{v, "x"}, metric{c, "x"}
		}
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), uncalibratedPrefix); ok {
			if _, err := fmt.Sscan(rest, &k, &v, &unit); err == nil {
				extra["uncalibrated."+k] = metric{v, unit}
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, err
	}
	return &res, extra, nil
}
