package serve

// Admission control: the overload valve in front of the instance budget.
// The query endpoint has a gate bounding how many requests are in service
// and how many may park waiting; everyone past the queue bound is shed
// immediately with *ErrOverloaded — HTTP 429 plus a Retry-After
// hint — instead of holding a goroutine (and the client's patience) until
// the deadline turns it into a 504. The instance-budget wait in acquire
// is bounded the same way, and a latency tracker feeds deadline-aware
// rejection: a request whose remaining deadline cannot cover the median
// run time is shed before it consumes anything.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cycledetect/internal/metrics"
)

// ErrOverloaded reports a request shed by admission control rather than
// executed. Callers should back off at least RetryAfter before retrying;
// the HTTP layer maps it to 429 with a Retry-After header.
type ErrOverloaded struct {
	// Endpoint names the limit that shed the request: "query" (its gate),
	// "instances" (the budget wait queue), or "deadline".
	Endpoint string
	// RetryAfter is the server's backoff hint, derived from the current
	// queue depth and median run time.
	RetryAfter time.Duration
	// Reason is a human-readable cause for logs and error bodies.
	Reason string
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: overloaded (%s): %s; retry after %v",
		e.Endpoint, e.Reason, e.RetryAfter)
}

// shedded counts one shed — the /stats total and the per-reason
// Prometheus counter — and builds its ErrOverloaded.
func (s *Server) shedded(endpoint, reason string) error {
	s.shed.Add(1)
	switch endpoint {
	case "query":
		s.met.shedQuery.Inc()
	case "instances":
		s.met.shedInst.Inc()
	case "deadline":
		s.met.shedDeadline.Inc()
	}
	return &ErrOverloaded{Endpoint: endpoint, RetryAfter: s.retryHint(), Reason: reason}
}

// retryHint estimates how long a shed client should back off: the median
// run time (from the shared run-duration histogram — no lock, no sort;
// the bespoke 128-entry latencyTracker that sorted a scratch slice under
// a mutex per admission decision is gone) times the number of requests
// ahead of it, clamped to something a client can reasonably sleep.
func (s *Server) retryHint() time.Duration {
	p50 := s.runP50()
	if p50 <= 0 {
		p50 = 50 * time.Millisecond
	}
	hint := p50 * time.Duration(s.queueDepth.Load()+s.inFlight.Load()+1)
	if hint < 10*time.Millisecond {
		hint = 10 * time.Millisecond
	}
	if hint > 30*time.Second {
		hint = 30 * time.Second
	}
	return hint
}

// enterQueue/leaveQueue account one parked request in the server-wide
// queue-depth gauge and its high-water mark — shared by the query gate and
// the instance-budget wait, so /stats shows total parked load.
func (s *Server) enterQueue() {
	d := s.queueDepth.Add(1)
	for {
		hw := s.queueHighWater.Load()
		if d <= hw || s.queueHighWater.CompareAndSwap(hw, d) {
			return
		}
	}
}

func (s *Server) leaveQueue() { s.queueDepth.Add(-1) }

// gate is the query endpoint's admission valve: at most limit requests in
// service, at most maxQueue parked waiting, everyone else shed. The
// fast path (a free service slot) is two integer updates under a
// private mutex — nothing allocated, nothing shared with the run path.
type gate struct {
	s        *Server
	endpoint string
	limit    int
	maxQueue int
	waitHist *metrics.Histogram // admission wait per admitted request

	mu     sync.Mutex
	cond   *sync.Cond
	active int
	queued int
}

func newGate(s *Server, endpoint string, limit, maxQueue int, waitHist *metrics.Histogram) *gate {
	g := &gate{s: s, endpoint: endpoint, limit: limit, maxQueue: maxQueue, waitHist: waitHist}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire admits the request, parks it in the bounded wait queue until a
// slot frees (bounded by ctx), or sheds it with *ErrOverloaded when the
// queue itself is full. The context watcher takes g.mu before
// broadcasting — the same no-missed-wakeup pattern as Server.waitLocked —
// and a newly parked request re-checks the slot condition before its
// first wait, so a release between "queue full?" and the wait cannot
// strand it.
// Admitted requests (fast path included) observe the wait histogram, so
// its shape answers "how long do requests queue at this endpoint" — a
// fast-path admission records ~0 and keeps the sample population honest.
func (g *gate) acquire(ctx context.Context) error {
	start := time.Now()
	g.mu.Lock()
	if g.active < g.limit {
		g.active++
		g.mu.Unlock()
		g.waitHist.ObserveSince(start)
		return nil
	}
	if g.queued >= g.maxQueue {
		g.mu.Unlock()
		return g.s.shedded(g.endpoint, fmt.Sprintf(
			"%d in service, wait queue of %d full", g.limit, g.maxQueue))
	}
	g.queued++
	g.s.enterQueue()
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	for g.active >= g.limit {
		if ctx.Err() != nil {
			g.queued--
			g.mu.Unlock()
			stop()
			g.s.leaveQueue()
			return ctx.Err()
		}
		g.cond.Wait()
	}
	g.active++
	g.queued--
	g.mu.Unlock()
	stop()
	g.s.leaveQueue()
	g.waitHist.ObserveSince(start)
	return nil
}

// release frees a service slot and wakes the queue.
func (g *gate) release() {
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
	g.cond.Broadcast()
}
