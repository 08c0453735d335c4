// Package serve is the query-serving layer over the CONGEST simulator: a
// Server multiplexes many concurrent tester/detector queries over a small
// set of cached, immutable compiled networks.
//
// The paper makes a single query cheap — "is this graph ε-far from
// Ck-free?" costs O(1/ε) CONGEST rounds, independent of the graph size —
// so at serving scale the dominant cost is everything around the run:
// building the graph, validating IDs, compiling the port topology, and
// spawning an engine. All of that amortization lives in
// internal/corestore: an LRU of compiled cores weighted by the bytes they
// hold, and per-graph pools of warm instances under one store-wide budget
// with coldest-graph reclaim. The Server keeps what is genuinely serving:
// admission control (the query gate, deadline-aware shedding, Retry-After
// hints), HTTP framing, request tracing, and metrics exposition; every
// cache and instance decision is delegated to the store. The query gate is
// the one admission queue: the store bounds no waiters of its own, and a
// query in service that finds the instance budget spent waits for a
// release, bounded by its deadline.
//
// Each query checks a warm instance out of the store per run through
// corestore.Store.Checkout. Parameter sweeps are not served: sweep.RunCtx,
// and cmd/sweep over it, runs them on a private store, since building and
// compiling a sweep's graphs costs about a millisecond against seconds of
// trials.
//
// Cancellation is threaded end to end, and the context is the one stop
// signal: a query runs on its caller's goroutine, and the request context
// flows through the instance-pool wait into network.RunProgramCtx, which
// polls it at every round barrier. A timed-out or abandoned query is
// answered when its run next polls, and its instance re-pools at the same
// moment; until then it holds its admission-gate slot and counts in
// serve_in_flight. That is within one round of the deadline: about 0.14 ms
// on a 256-node G(n,4n) at k=7, and about 0.6 s on a one-worker instance of
// a 2^20-edge G(n,m), where a warm k=7 repetition (4 rounds) took 2.2–2.4 s
// on a 2-core host. A cold instance first builds its nodes, which is not
// polled (a cold first run at that size took 5.6–7.4 s), and neither are
// the checkout's graph build and compile on a cache miss.
//
// Concurrency: Instances attached to one Compiled are independent, so N
// queries over one cached graph run genuinely in parallel while reading
// one shared topology. Results are deterministic per (graph, program,
// seed) — identical to a fresh sequential run, whatever the interleaving.
//
// The HTTP surface (see Handler) is POST /query for single runs and GET
// /stats for cache and in-flight counters including per-entry size, hits,
// and age.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/corestore"
	"cycledetect/internal/network"
)

// Options configures a Server. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxGraphs caps the number of cached compiled networks (default 64;
	// negative disables the entry bound, like MaxCacheBytes). Eviction is
	// primarily byte-weighted (MaxCacheBytes); this is the secondary guard
	// against unbounded entry counts of tiny graphs.
	// Evicting a graph closes its idle instances; in-flight queries on an
	// evicted graph finish normally and their instances are then released
	// for good.
	MaxGraphs int
	// MaxCacheBytes bounds the summed compiled size (Compiled.MemSize,
	// Θ(m) bytes per graph) of the cache (default 256 MiB; negative
	// disables the byte bound). The most recently used entry is never
	// evicted, so one over-budget giant graph still serves.
	MaxCacheBytes int64
	// MaxInstances is the SERVER-WIDE budget of live instances — idle in
	// pools plus in-flight — across all graphs (default GOMAXPROCS).
	// Equivalently, the number of runs that can execute concurrently. When
	// the budget is exhausted, an admitted query first reclaims an idle
	// instance from the coldest cached graph, then waits (bounded by its
	// deadline) for an in-flight run to release one; it counts as in
	// service meanwhile, and only the query gate sheds.
	MaxInstances int
	// QueryTimeout bounds one query end to end, including the wait for a
	// free instance (default 30s; negative disables). A timed-out query
	// returns 504 when its run next polls the deadline, at a round barrier:
	// one round late at most (about 0.6 s at the 2^20-edge cap on one
	// worker), or, on a cold instance, right after its node build, which is
	// not polled (seconds at the cap). Its instance rejoins the pool then.
	QueryTimeout time.Duration
	// NetworkWorkers is the BSP pool width of each instance (default 1:
	// serving parallelism comes from concurrent queries, not from
	// intra-run workers).
	NetworkWorkers int
	// BandwidthBits, if positive, compiles a hard per-message budget into
	// every cached network.
	BandwidthBits int
	// MaxInstanceBytes bounds live instances by the bytes they pin
	// (Compiled.MemSize per instance), alongside the MaxInstances count
	// bound, so a budget of N instances cannot silently become N giant
	// graphs (default 256 MiB; negative disables the byte bound). Like the
	// cache bound, the first instance always spawns, so one over-budget
	// giant still serves.
	MaxInstanceBytes int64
	// MaxQueueDepth bounds the query gate's wait queue, the one admission
	// queue (default 64; negative disables the bound). A request arriving at
	// a full queue is shed immediately with *ErrOverloaded (HTTP 429 +
	// Retry-After) instead of parking until its deadline turns it into a
	// 504.
	MaxQueueDepth int
	// MaxConcurrentQueries caps queries in service at once, those waiting
	// for an instance included; excess queries park in the bounded
	// admission queue (default max(4×MaxInstances, 2×GOMAXPROCS); negative
	// disables the gate). Ungated, nothing bounds how many queries wait for
	// an instance: only QueryTimeout ends their wait.
	MaxConcurrentQueries int
	// DisableMetrics removes GET /metrics from the handler. Collection
	// itself always runs (it is allocation-free on the hot paths); this
	// only controls exposition.
	DisableMetrics bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler — CPU/heap/goroutine profiling for diagnosing a saturated
	// server. Off by default: the profile endpoints are a DoS surface and
	// belong behind operator-only listeners.
	EnablePprof bool
	// LogRequests logs one line per HTTP request — method, path, status,
	// duration, and the request's run-ID — through Logf.
	LogRequests bool
	// Logf, when non-nil, replaces log.Printf for the server's request
	// and diagnostic logging (tests capture it; production leaves nil).
	Logf func(format string, args ...any)
}

// defaultQueryTimeout bounds queries when Options.QueryTimeout is zero.
const defaultQueryTimeout = 30 * time.Second

func (o Options) queryTimeout() time.Duration {
	if o.QueryTimeout < 0 {
		return 0
	}
	if o.QueryTimeout == 0 {
		return defaultQueryTimeout
	}
	return o.QueryTimeout
}

func (o Options) maxInstances() int {
	if o.MaxInstances > 0 {
		return o.MaxInstances
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxQueueDepth() int {
	if o.MaxQueueDepth > 0 {
		return o.MaxQueueDepth
	}
	if o.MaxQueueDepth < 0 {
		return int(^uint(0) >> 1)
	}
	return 64
}

func (o Options) maxConcurrentQueries() int {
	if o.MaxConcurrentQueries > 0 {
		return o.MaxConcurrentQueries
	}
	if o.MaxConcurrentQueries < 0 {
		return int(^uint(0) >> 1)
	}
	// Wide enough that queries park on the instance budget (where waiting
	// is useful — a release anywhere unblocks them), not at the gate: the
	// gate exists to bound the goroutine pile-up, not to serialize.
	d := 4 * o.maxInstances()
	if p := 2 * runtime.GOMAXPROCS(0); p > d {
		d = p
	}
	return d
}

// Server serves tester queries over cached compiled networks. Create with
// NewServer, expose with Handler (or call Query directly), release with
// Close. All methods are safe for concurrent use.
type Server struct {
	opts Options

	// store owns everything compiled: the core LRU and the warm-instance
	// pools and their budget.
	store *corestore.Store

	// Admission control (see admission.go): the query gate, whose counts
	// are the in-flight and queue-depth gauges. The latency signal behind
	// deadline-aware shedding and Retry-After hints is the shared
	// run-duration histogram (met.run, see runP50).
	queryGate *gate

	// met owns the /metrics registry and every recorded series; it is
	// also the network.RunCollector each spawned instance reports to.
	met *serveMetrics

	// Run-ID tracing: per-request IDs (X-Request-ID or generated from
	// ridSalt+ridSeq) flow HTTP → Query → the in-flight table below, so a
	// slow query is findable in /stats while it runs. Only requests
	// carrying an ID are tracked — the direct Query fast path (no ID)
	// pays nothing.
	ridSalt  uint64
	ridSeq   atomic.Int64
	flMu     sync.Mutex
	inflight map[*inflightReq]struct{}

	queries  atomic.Int64
	timeouts atomic.Int64
	failures atomic.Int64
	shed     atomic.Int64 // requests rejected by admission control (429s)
	panics   atomic.Int64 // handler panics recovered by the HTTP middleware
}

// worker is the program cache one warm instance keeps across the queries it
// serves: the last Tester and EdgeDetector values, so consecutive
// same-parameter queries hit the ReusableNode fast path. It rides along
// with the instance between checkouts as the corestore handle's Scratch.
type worker struct {
	tester *core.Tester
	det    *core.EdgeDetector
}

// NewServer returns a Server with the given options.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:     opts,
		ridSalt:  uint64(time.Now().UnixNano()),
		inflight: make(map[*inflightReq]struct{}),
	}
	s.met = newServeMetrics(s)
	s.store = corestore.New(corestore.Options{
		MaxGraphs:        opts.MaxGraphs,
		MaxCacheBytes:    opts.MaxCacheBytes,
		MaxInstances:     opts.MaxInstances,
		MaxInstanceBytes: opts.MaxInstanceBytes,
		DefaultWorkers:   opts.NetworkWorkers,
		BandwidthBits:    opts.BandwidthBits,
		Collector:        s.met,
	})
	s.queryGate = newGate(s, opts.maxConcurrentQueries(), opts.maxQueueDepth(), s.met.queueWaitQuery)
	return s
}

// Metrics exposes the server's metrics registry (what GET /metrics
// renders) for embedding servers that scrape or extend it.
func (s *Server) Metrics() interface {
	WritePrometheus(w io.Writer) error
} {
	return s.met.reg
}

// logf routes diagnostic logging through Options.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Close releases the compiled-core store: every cached graph and idle
// instance is released. In-flight queries finish; their instances are
// closed on release. Further queries fail.
func (s *Server) Close() {
	s.store.Close()
}

// workerFor returns the handle's resident worker, attaching one on the
// instance's first checkout.
func workerFor(h *corestore.Handle) *worker {
	if w, ok := h.Scratch.(*worker); ok {
		return w
	}
	w := &worker{}
	h.Scratch = w
	return w
}

// Query answers one tester/detector query, reusing the cached compiled
// network and a pooled warm instance when possible. It is the transport-
// independent core of POST /query (and what BenchmarkServeConcurrent
// measures); ctx bounds the whole query — the admission wait, the wait for
// a free instance AND the run itself, which runs on the caller's goroutine
// and is cancelled at its next round barrier when ctx fires. A request is
// validated before admission, but an uploaded graph is built only once the
// gate admits its query. Safe for concurrent use.
func (s *Server) Query(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	s.queries.Add(1)

	start := time.Now()
	if to := s.opts.queryTimeout(); to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}

	// In-flight tracing: only requests carrying a run-ID (the HTTP path)
	// are tracked — fl is nil otherwise and every touch below is a no-op,
	// so the direct Query path stays at its allocation floor.
	fl := s.trackInflight(ctx)
	defer fl.done(s)

	if err := req.validate(); err != nil {
		s.failures.Add(1)
		return nil, err
	}
	// Deadline-aware rejection: a request whose remaining deadline cannot
	// cover the median run time would only burn an instance and 504 anyway
	// — shed it now, while it is still cheap for both sides. The median
	// comes from the shared run-duration histogram (no lock, no sort).
	if p50 := s.runP50(); p50 > 0 {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < p50 {
			return nil, s.shedded("deadline", fmt.Sprintf(
				"remaining deadline %v below median run time %v",
				time.Until(dl).Round(time.Microsecond), p50.Round(time.Microsecond)))
		}
	}
	fl.setStage(stageAdmit)
	if err := s.queryGate.acquire(ctx); err != nil {
		s.countQueryErr(ctx, err)
		return nil, err
	}
	defer s.queryGate.release()
	fl.setStage(stageAcquire)
	key, build, err := req.resolve()
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	// The store retries evicted entries internally and bounds the
	// instance-budget wait by ctx alone; the gate bounds how many wait.
	acquireStart := time.Now()
	h, hit, err := s.store.Checkout(ctx, key, build, network.EngineBSP, 0)
	if err != nil {
		s.countQueryErr(ctx, err)
		return nil, err
	}
	s.met.acquire.ObserveSince(acquireStart)
	// The release is deferred, so it follows the summary below (the
	// instance's Result is overwritten by its next run) on every path,
	// a recovered panic's included.
	defer s.store.Release(h)
	prog, reps := workerFor(h).arm(req)

	// The run carries ctx and polls it at every round barrier, so a
	// timed-out or abandoned query is answered, and its instance re-pooled,
	// when the run next polls: within one round of ctx firing, or after a
	// cold instance's node build.
	runStart := time.Now()
	fl.setStage(stageRun)
	res, err := h.Inst.RunProgramCtx(ctx, prog, req.Seed)
	if err != nil {
		s.countQueryErr(ctx, err)
		var ce *network.ErrCanceled
		if !errors.As(err, &ce) {
			return nil, err
		}
		verb := "canceled"
		if errors.Is(err, context.DeadlineExceeded) {
			verb = "deadline exceeded"
		}
		return nil, fmt.Errorf("serve: query %s after %v: %w", verb,
			time.Since(start).Round(time.Millisecond), err)
	}
	s.met.run.ObserveSince(runStart) // successful runs only: shed/abort times would skew the median down
	dec := core.Summarize(res.Outputs, res.IDs)
	g := h.Inst.Graph()
	resp := &QueryResponse{
		Rejected:       dec.Reject,
		RejectingIDs:   dec.RejectingIDs,
		Witness:        dec.Witness,
		N:              g.N(),
		M:              g.M(),
		Rounds:         res.Stats.Rounds,
		Repetitions:    reps,
		Messages:       res.Stats.MessagesSent,
		TotalBits:      res.Stats.TotalBits,
		MaxMessageBits: res.Stats.MaxMessageBits,
		MaxSeqs:        dec.MaxSeqs,
		Cache:          "miss",
	}
	if hit {
		resp.Cache = "hit"
	}
	s.met.query.ObserveSince(start)
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// countQueryErr attributes a failed query to the right counter: nothing
// extra for a shed (shedded already counted it, and a shed is the server
// working as designed, not failing), timeouts for a blown deadline, nothing
// for a client cancellation (the server did nothing wrong and the operator
// sizing QueryTimeout must not see phantom timeouts), failures for
// everything else.
func (s *Server) countQueryErr(ctx context.Context, err error) {
	var ov *ErrOverloaded
	switch {
	case errors.As(err, &ov):
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	case errors.Is(err, context.Canceled):
	default:
		s.failures.Add(1)
	}
}

// arm returns the request's program and its repetition count (0 for a
// detector), reusing the worker's previous Program value when the
// parameters match — the condition for the instance's ReusableNode fast
// path, which is what keeps repeated cache-hit queries near the
// reused-RunProgram allocation floor.
func (w *worker) arm(req *QueryRequest) (network.Program, int) {
	if req.Op == OpDetect {
		if w.det == nil || w.det.K != req.K || w.det.U != req.Edge[0] || w.det.V != req.Edge[1] {
			w.det = &core.EdgeDetector{K: req.K, U: req.Edge[0], V: req.Edge[1]}
		}
		return w.det, 0
	}
	if w.tester == nil || w.tester.K != req.K || w.tester.Eps != req.Eps || w.tester.Reps != req.Reps {
		w.tester = &core.Tester{K: req.K, Eps: req.Eps, Reps: req.Reps}
	}
	return w.tester, w.tester.Repetitions()
}

// Stats is a point-in-time snapshot of the server's counters: the
// compiled-core store's own Stats (cache, instance budget, per-entry
// detail) plus the serving layer's traffic and resilience counters.
type Stats struct {
	corestore.Stats
	Queries  int64 `json:"queries"`
	Timeouts int64 `json:"timeouts"`
	Failures int64 `json:"failures"`
	// InFlight counts queries the gate admitted and has not released,
	// those waiting for an instance included.
	InFlight int64 `json:"in_flight"`
	// Resilience counters (see admission.go): Shed counts requests rejected
	// with 429, QueueDepth/QueueHighWater track requests parked in the query
	// gate's wait queue, and PanicsRecovered counts handler panics caught
	// by the HTTP middleware.
	Shed            int64 `json:"shed"`
	QueueDepth      int64 `json:"queue_depth"`
	QueueHighWater  int64 `json:"queue_high_water"`
	PanicsRecovered int64 `json:"panics_recovered"`
	// HitRate is Hits / (Hits + Misses), 0 before the first lookup.
	HitRate float64 `json:"hit_rate"`
	// InFlightRequests lists run-ID-tracked requests currently inside the
	// server, oldest first, with the stage each is in — the "where is my
	// slow request" view (only requests whose context carries a run-ID
	// appear; the HTTP layer attaches one to every request).
	InFlightRequests []InFlightRequestStats `json:"in_flight_requests,omitempty"`
}

// Stats returns a snapshot of the cache and traffic counters.
func (s *Server) Stats() Stats {
	active, queued, highWater := s.queryGate.load()
	st := Stats{
		Stats:           s.store.Stats(),
		Queries:         s.queries.Load(),
		Timeouts:        s.timeouts.Load(),
		Failures:        s.failures.Load(),
		InFlight:        int64(active),
		Shed:            s.shed.Load(),
		QueueDepth:      int64(queued),
		QueueHighWater:  int64(highWater),
		PanicsRecovered: s.panics.Load(),
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	st.InFlightRequests = s.inflightSnapshot(time.Now())
	return st
}
