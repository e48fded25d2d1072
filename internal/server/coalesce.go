package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	repro "repro"
	"repro/internal/faultpoint"
)

// The coalescer merges concurrent small /v1/align requests into one
// AlignBatchItemsContext submission. Each arriving request is buffered;
// the first arrival arms a CoalesceTick timer, and when it fires (or the
// buffer reaches CoalesceMax) the whole buffer is flushed as a single
// batch holding one run slot. The win is PR 3's narrow-batch arbitration:
// a flush of k small triples on a w-way pool gets intra-triple
// parallelism when k < w, whereas k independent submissions would fight
// over run slots and schedule k separate wavefronts. The cost is up to
// one tick of added latency on the coalesced path — which is why only
// requests below CoalesceCells lattice cells are eligible; large
// alignments go straight to a dedicated run slot where the tick would be
// noise but a shared flush could convoy them behind each other.

// ErrServerClosed is reported to coalesced requests caught by Close
// before their flush was submitted.
var ErrServerClosed = errors.New("server: draining, request abandoned")

// fpFlush panics inside the flush delivery loop — after some parked
// requests have been answered and before the rest — which is the nastiest
// place a flush can die: a naive flusher would abandon the unanswered
// tail on their done channels forever.
var fpFlush = faultpoint.New("server.coalesce.flush")

// flushPanicError is the typed failure delivered to parked requests whose
// coalesced flush panicked after they were buffered: a server-side 500
// carrying the recovered cause, scoped to the affected requests only.
type flushPanicError struct{ cause any }

func (e *flushPanicError) Error() string {
	return fmt.Sprintf("server: coalesced flush panicked: %v", e.cause)
}

// coalescePending is one buffered request awaiting its flush.
type coalescePending struct {
	item repro.BatchItem
	done chan coalesceDone // buffered: the flusher never blocks delivering
}

// coalesceDone is the flush outcome delivered back to the waiting handler.
type coalesceDone struct {
	res *repro.Result
	err error
}

type coalescer struct {
	srv *Server

	mu     sync.Mutex
	buf    []*coalescePending
	timer  *time.Timer
	closed bool
	wg     sync.WaitGroup // outstanding flush goroutines
}

func newCoalescer(s *Server) *coalescer { return &coalescer{srv: s} }

// eligible reports whether the configuration turns coalescing on and the
// request is small enough to be coalesced.
func (c *coalescer) eligible(item repro.BatchItem) bool {
	if c.srv.cfg.CoalesceTick <= 0 {
		return false
	}
	tr := item.Triple
	cells := int64(tr.A.Len()+1) * int64(tr.B.Len()+1) * int64(tr.C.Len()+1)
	return cells <= c.srv.cfg.CoalesceCells
}

// submit buffers the item and returns its pending handle; the caller
// waits on done. A nil return means the coalescer is closed and the
// caller should run directly.
func (c *coalescer) submit(item repro.BatchItem) *coalescePending {
	p := &coalescePending{item: item, done: make(chan coalesceDone, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.buf = append(c.buf, p)
	full := len(c.buf) >= c.srv.cfg.CoalesceMax
	if full {
		batch := c.take()
		c.mu.Unlock()
		c.flush(batch)
		return p
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(c.srv.cfg.CoalesceTick, c.tick)
	}
	c.mu.Unlock()
	return p
}

// take detaches the buffer and disarms the timer; callers hold mu.
func (c *coalescer) take() []*coalescePending {
	batch := c.buf
	c.buf = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// tick is the timer callback: flush whatever the window accumulated.
func (c *coalescer) tick() {
	c.mu.Lock()
	batch := c.take()
	c.mu.Unlock()
	c.flush(batch)
}

// flush submits one batch on a run slot from a fresh goroutine and
// delivers each item's outcome. The batch runs under the server's base
// context so one client's disconnect cannot cancel its batch-mates;
// per-item deadlines ride in each item's Options.
//
// A panic anywhere in the flush — most dangerously mid-delivery, when
// some parked requests are already answered — must not abandon the rest
// on their done channels: the deferred recover answers exactly the
// not-yet-answered requests with a *flushPanicError (their 500), so every
// parked handler is always released. The per-item alignment panics are
// already contained by AlignBatchItemsContext; this recover covers the
// flush machinery itself.
func (c *coalescer) flush(batch []*coalescePending) {
	if len(batch) == 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		s := c.srv
		answered := make([]bool, len(batch))
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			s.stats.panicsContained.Add(1)
			err := &flushPanicError{cause: r}
			for i, p := range batch {
				if !answered[i] {
					p.done <- coalesceDone{err: err}
				}
			}
		}()
		if err := s.gate.acquireRun(s.base); err != nil {
			for i, p := range batch {
				p.done <- coalesceDone{err: ErrServerClosed}
				answered[i] = true
			}
			return
		}
		defer s.gate.releaseRun()
		items := make([]repro.BatchItem, len(batch))
		for i, p := range batch {
			items[i] = p.item
		}
		s.stats.coalescedBatches.Add(1)
		s.stats.coalescedRequests.Add(int64(len(batch)))
		for _, r := range repro.AlignBatchItemsContext(s.base, items) {
			if fpFlush.Fire() {
				panic("faultpoint: server.coalesce.flush")
			}
			batch[r.Index].done <- coalesceDone{res: r.Result, err: r.Err}
			answered[r.Index] = true
		}
	}()
}

// close flushes the remaining buffer and waits for outstanding flushes,
// so every handler still parked on a done channel is answered.
func (c *coalescer) close() {
	c.mu.Lock()
	c.closed = true
	batch := c.take()
	c.mu.Unlock()
	c.flush(batch)
	c.wg.Wait()
}
