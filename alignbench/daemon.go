package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one alignd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// setup is the time from launching the process to its first 200 on
	// /readyz.
	setup time.Duration
	done  chan error
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches alignd with flags and waits for /readyz.
func startDaemon(bin string, flags []string, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{"-addr", addr, "-drain-grace", "0s"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// alignd dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting alignd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	url := "http://" + addr + "/readyz"
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("alignd exited before ready (%v); see %s", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("alignd not ready after 30s; see %s", logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains alignd with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("alignd did not drain within 30s")
	}
}

// kill ends alignd at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// measureSetup starts and kills alignd n times and returns each setup time.
func measureSetup(bin string, flags []string, logPath string, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := startDaemon(bin, flags, logPath)
		if err != nil {
			return nil, err
		}
		out = append(out, d.setup.Seconds())
		d.kill()
	}
	return out, nil
}

// cpuTime returns alignd's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is the kernel's USER_HZ, 100 on every Linux platform Go
// supports.
const clockTicks = 100

// resetPeak resets alignd's VmHWM to its current RSS.
func (d *daemon) resetPeak() error {
	path := fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid)
	if err := os.WriteFile(path, []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting alignd's peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns alignd's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
