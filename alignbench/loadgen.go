package main

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// sample is the outcome of one request as the client saw it.
type sample struct {
	input   int
	latency time.Duration
	start   time.Time // request sent
	end     time.Time // reply received
	status  int       // HTTP status; 0 for a transport error
	err     error
	align   *client.AlignResponse
	msa     *client.MsaResponse
}

// phase is one timed pass over a request list.
type phase struct {
	samples []sample
	wall    time.Duration
}

// driver sends a workload's requests to one alignd through the client
// package, with retries off so every failure is seen.
type driver struct {
	w  *workload
	s  *stream
	cl *client.Client
	// onDone, when set, is called after each request with its span times.
	onDone func(i int, start, end time.Time)
}

func newDriver(w *workload, s *stream, addr string) *driver {
	tr := &http.Transport{MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients}
	cl := client.New(client.Config{
		BaseURL:    "http://" + addr,
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: -1,
		// A hung alignd fails requests instead of hanging the run.
		AttemptTimeout: time.Minute,
		Seed:           1,
	})
	return &driver{w: w, s: s, cl: cl}
}

// send issues one request and fills the sample's outcome fields.
func (d *driver) send(ctx context.Context, sm *sample) {
	var err error
	if d.w.msa {
		sm.msa, err = d.cl.Msa(ctx, d.s.msaRequest(sm.input))
	} else {
		sm.align, err = d.cl.Align(ctx, d.s.alignRequest(sm.input))
	}
	sm.err = err
	var he *client.HTTPError
	switch {
	case err == nil:
		sm.status = http.StatusOK
	case errors.As(err, &he):
		sm.status = he.StatusCode
	}
}

// run sends reqs in order from the workload's closed-loop clients.
func (d *driver) run(reqs []request) phase {
	ctx := context.Background()
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				sm := &samples[i]
				sm.input = reqs[i].input
				t0 := time.Now()
				d.send(ctx, sm)
				end := time.Now()
				sm.start, sm.end = t0, end
				sm.latency = end.Sub(t0)
				if d.onDone != nil {
					d.onDone(i, t0, end)
				}
			}
		}()
	}
	wg.Wait()
	return phase{samples: samples, wall: time.Since(start)}
}
