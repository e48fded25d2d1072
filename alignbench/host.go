package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp identifies the machine and source a result came from, so
// numbers from different hosts are never compared silently.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	AVX2       bool   `json:"avx2"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func stamp() hostStamp {
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev("."),
		CPU:        "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				h.CPU = strings.TrimSpace(v)
			case "flags":
				h.AVX2 = strings.Contains(" "+v+" ", " avx2 ")
			}
		}
	}
	return h
}

func (h hostStamp) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d avx2=%t go=%s rev=%s cpu=%q",
		h.NumCPU, h.GOMAXPROCS, h.AVX2, h.GoVersion, h.GitRev, h.CPU)
}

// gitRev reads HEAD from the .git directory under root without running
// git; a checkout that is not a repository reports "none".
func gitRev(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return short(ref)
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	if b, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return short(sha)
			}
		}
	}
	return "unknown"
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// stealTicks returns the CPU time the hypervisor gave to other guests and
// the total CPU time, in clock ticks, from the first line of /proc/stat.
// Their deltas over the measured phase show how much of the host's noise a
// run absorbed.
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	for i, field := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, _ := strconv.ParseUint(field, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
