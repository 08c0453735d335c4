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
// hold, and per-(graph, width) pools of warm instances under one
// store-wide budget with coldest-graph reclaim. The Server keeps what is
// genuinely serving: admission control (gates, deadline-aware
// shedding, Retry-After hints), HTTP framing, request tracing, and metrics
// exposition; every cache and instance decision is delegated to the store.
//
// Each query checks a warm instance out of the store per run through
// corestore.Store.Checkout. Parameter sweeps are not served: sweep.RunCtx,
// and cmd/sweep over it, runs them on a private store, since building and
// compiling a sweep's graphs costs about a millisecond against seconds of
// trials.
//
// Cancellation is threaded end to end: the request context flows through
// the instance-pool wait into network.RunProgramCtx, so a timed-out or
// abandoned query aborts its CONGEST run at the next round barrier and the
// instance re-pools within one round — abandoned work stops consuming the
// budget almost immediately, instead of burning every remaining round in
// the background.
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
	"cycledetect/internal/graph"
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
	// pools plus in-flight — across all graphs and widths (default
	// GOMAXPROCS). Equivalently, the number of runs that can execute
	// concurrently. When the budget is exhausted, a query first reclaims
	// an idle instance from the coldest cached graph, then waits (bounded
	// by its deadline) for an in-flight run to release one.
	MaxInstances int
	// QueryTimeout bounds one query end to end, including the wait for a
	// free instance (default 30s; negative disables). A timed-out query
	// returns 504; its run is cancelled at the next round barrier and the
	// instance rejoins the pool within one round.
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
	// MaxQueueDepth bounds every admission wait queue — the query gate AND
	// the instance-budget wait (default 64; negative disables the bound).
	// A request arriving at a full queue is shed immediately with
	// *ErrOverloaded (HTTP 429 + Retry-After) instead of parking until its
	// deadline turns it into a 504.
	MaxQueueDepth int
	// MaxConcurrentQueries caps queries in service at once; excess
	// queries park in the bounded admission queue (default
	// max(4×MaxInstances, 2×GOMAXPROCS); negative disables the gate).
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

func (o Options) networkWorkers() int {
	if o.NetworkWorkers > 0 {
		return o.NetworkWorkers
	}
	return 1
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

// storeOptions maps the server's options onto the core store's, wiring the
// server's observability (queue-depth accounting, latency histograms, the
// run collector) through the store's hooks.
func (s *Server) storeOptions() corestore.Options {
	return corestore.Options{
		MaxGraphs:        s.opts.MaxGraphs,
		MaxCacheBytes:    s.opts.MaxCacheBytes,
		MaxInstances:     s.opts.MaxInstances,
		MaxInstanceBytes: s.opts.MaxInstanceBytes,
		MaxQueueDepth:    s.opts.MaxQueueDepth,
		DefaultWorkers:   s.opts.NetworkWorkers,
		BandwidthBits:    s.opts.BandwidthBits,
		Collector:        s.met,
		OnQueueEnter:     s.enterQueue,
		OnQueueLeave:     s.leaveQueue,
		ObserveWait:      func(d time.Duration) { s.met.queueWaitInst.Observe(int64(d)) },
		ObserveAcquire:   func(d time.Duration) { s.met.acquire.Observe(int64(d)) },
	}
}

// Server serves tester queries over cached compiled networks. Create with
// NewServer, expose with Handler (or call Query directly), release with
// Close. All methods are safe for concurrent use.
type Server struct {
	opts Options

	// store owns everything compiled: the core LRU and the warm-instance
	// pools and their budget.
	store *corestore.Store

	// Admission control (see admission.go): the query gate. The latency
	// signal behind deadline-aware shedding and Retry-After hints is the
	// shared run-duration histogram (met.run, see runP50).
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

	queries        atomic.Int64
	timeouts       atomic.Int64
	failures       atomic.Int64
	inFlight       atomic.Int64
	shed           atomic.Int64 // requests rejected by admission control (429s)
	queueDepth     atomic.Int64 // requests parked in wait queues right now
	queueHighWater atomic.Int64 // max queueDepth ever observed
	panics         atomic.Int64 // handler panics recovered by the HTTP middleware
}

// worker is everything the server reuses across the queries one warm
// instance serves: the cached Program values (so consecutive
// same-parameter queries hit the ReusableNode fast path) and the
// completion channel of the run-with-deadline handoff. It rides along with
// the instance between checkouts as the corestore handle's Scratch.
type worker struct {
	inst   *network.Instance
	tester *core.Tester
	det    *core.EdgeDetector
	done   chan queryOutcome

	// Per-run inputs/outputs, set before the goroutine handoff. ctx is the
	// query's context: the run aborts at its next round barrier once ctx
	// fires, which is what re-pools a 504'd query's instance promptly.
	//ckvet:ctxfield run-handoff slot: set right before the worker goroutine starts, dead once the run returns
	ctx  context.Context
	prog network.Program
	seed uint64
	reps int // Repetitions() of a tester prog; 0 for detectors
}

type queryOutcome struct {
	resp *QueryResponse
	err  error
}

// NewServer returns a Server with the given options.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:     opts,
		ridSalt:  uint64(time.Now().UnixNano()),
		inflight: make(map[*inflightReq]struct{}),
	}
	s.met = newServeMetrics(s)
	s.store = corestore.New(s.storeOptions())
	s.queryGate = newGate(s, "query", opts.maxConcurrentQueries(), opts.maxQueueDepth(), s.met.queueWaitQuery)
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

// checkout acquires a warm instance handle from the store, translating its
// saturation error (see shedSaturated).
func (s *Server) checkout(ctx context.Context, key string, build func() (*graph.Graph, error),
	workers int) (*corestore.Handle, bool, error) {
	h, hit, err := s.store.Checkout(ctx, key, build, network.EngineBSP, workers)
	if err != nil {
		return nil, false, s.shedSaturated(err)
	}
	return h, hit, nil
}

// shedSaturated translates a store checkout error into the server's
// overload vocabulary: a *corestore.ErrSaturated becomes a shed — the shed
// counter, the per-reason metric, and an *ErrOverloaded carrying a
// Retry-After hint. Any other error passes through. Callers invoke it only
// on the error path: boxing the errors.As target costs a heap allocation.
func (s *Server) shedSaturated(err error) error {
	var sat *corestore.ErrSaturated
	if errors.As(err, &sat) {
		return s.shedded("instances", fmt.Sprintf(
			"instance budget (%d) saturated and its wait queue (%d) full",
			sat.Instances, sat.QueueDepth))
	}
	return err
}

// release returns a handle to the store, first dropping the dead request's
// context and program so an idle worker doesn't pin the finished HTTP
// request chain while parked. The tester/detector values stay on the
// worker: they are the ReusableNode fast path for the next query.
func (s *Server) release(h *corestore.Handle) {
	if w, ok := h.Scratch.(*worker); ok {
		w.ctx, w.prog = nil, nil
	}
	s.store.Release(h)
}

// workerFor returns the handle's resident worker, attaching one on the
// instance's first checkout.
func workerFor(h *corestore.Handle) *worker {
	if w, ok := h.Scratch.(*worker); ok {
		return w
	}
	w := &worker{inst: h.Inst, done: make(chan queryOutcome, 1)}
	h.Scratch = w
	return w
}

// Query answers one tester/detector query, reusing the cached compiled
// network and a pooled warm instance when possible. It is the transport-
// independent core of POST /query (and what BenchmarkServeConcurrent
// measures); ctx bounds the whole query — the wait for a free instance AND
// the run itself, which is cancelled at its next round barrier when ctx
// fires. Safe for concurrent use.
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
	fl := s.trackInflight(ctx, "query")
	defer fl.done(s)

	key, build, err := req.resolve()
	if err != nil {
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
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	// The store retries evicted entries internally and bounds the
	// instance-budget wait by ctx; a full wait queue surfaces here as a
	// shed (see checkout).
	fl.setStage(stageAcquire)
	h, hit, err := s.checkout(ctx, key, build, s.opts.networkWorkers())
	if err != nil {
		var ov *ErrOverloaded
		if !errors.As(err, &ov) { // shedded already counted the shed
			s.countQueryErr(ctx, err)
		}
		return nil, err
	}
	w := workerFor(h)
	w.arm(req)
	w.ctx = ctx
	w.seed = req.Seed

	// The deadline is enforced twice over: the select below answers the
	// client the instant ctx fires, and the run itself — carrying ctx —
	// aborts at its next round barrier, so the abandoned instance re-pools
	// within one round instead of at run completion.
	runStart := time.Now()
	fl.setStage(stageRun)
	go w.run()
	select {
	case out := <-w.done:
		s.release(h)
		if out.err != nil {
			var ce *network.ErrCanceled
			if errors.As(out.err, &ce) {
				// The run lost the race with its own context; report it the
				// same way — verb included — as a deadline hit on the wait.
				s.countQueryErr(ctx, ce.Cause)
				verb := "canceled"
				if errors.Is(ce.Cause, context.DeadlineExceeded) {
					verb = "deadline exceeded"
				}
				return nil, fmt.Errorf("serve: query %s after %v: %w", verb,
					time.Since(start).Round(time.Millisecond), out.err)
			}
			s.failures.Add(1)
			return nil, out.err
		}
		s.met.run.ObserveSince(runStart) // successful runs only: shed/abort times would skew the median down
		s.met.query.ObserveSince(start)
		out.resp.Cache = "miss"
		if hit {
			out.resp.Cache = "hit"
		}
		out.resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return out.resp, nil
	case <-ctx.Done():
		s.countQueryErr(ctx, ctx.Err())
		go func() {
			<-w.done // the cancelled run parks within one round
			s.release(h)
		}()
		verb := "canceled"
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			verb = "deadline exceeded"
		}
		return nil, fmt.Errorf("serve: query %s after %v: %w", verb, time.Since(start).Round(time.Millisecond), ctx.Err())
	}
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

// arm binds the request's program to the worker, reusing the previous
// Program value when the parameters match — the condition for the
// instance's ReusableNode fast path, which is what keeps repeated cache-hit
// queries near the reused-RunProgram allocation floor.
func (w *worker) arm(req *QueryRequest) {
	mode := core.ModePruned
	if req.Naive {
		mode = core.ModeNaive
	}
	if req.Op == OpDetect {
		if w.det == nil || w.det.K != req.K || w.det.U != req.Edge[0] || w.det.V != req.Edge[1] || w.det.Mode != mode {
			w.det = &core.EdgeDetector{K: req.K, U: req.Edge[0], V: req.Edge[1], Mode: mode}
		}
		w.prog, w.reps = w.det, 0
		return
	}
	if w.tester == nil || w.tester.K != req.K || w.tester.Eps != req.Eps || w.tester.Reps != req.Reps || w.tester.Mode != mode {
		w.tester = &core.Tester{K: req.K, Eps: req.Eps, Reps: req.Reps, Mode: mode}
	}
	w.prog, w.reps = w.tester, w.tester.Repetitions()
}

// run executes the armed program under the query context and summarizes
// into a response. It runs in its own goroutine so the caller can answer
// the client the moment the deadline fires; the run itself observes the
// same context and aborts at its next round barrier, re-pooling the
// instance promptly. The summary happens here, before release, because the
// instance's Result is overwritten by its next run.
func (w *worker) run() {
	res, err := w.inst.RunProgramCtx(w.ctx, w.prog, w.seed)
	if err != nil {
		w.done <- queryOutcome{err: err}
		return
	}
	dec := core.Summarize(res.Outputs, res.IDs)
	g := w.inst.Graph()
	w.done <- queryOutcome{resp: &QueryResponse{
		Rejected:       dec.Reject,
		RejectingIDs:   dec.RejectingIDs,
		Witness:        dec.Witness,
		N:              g.N(),
		M:              g.M(),
		Rounds:         res.Stats.Rounds,
		Repetitions:    w.reps,
		Messages:       res.Stats.MessagesSent,
		TotalBits:      res.Stats.TotalBits,
		MaxMessageBits: res.Stats.MaxMessageBits,
		MaxSeqs:        dec.MaxSeqs,
	}}
}

// Stats is a point-in-time snapshot of the server's counters: the
// compiled-core store's own Stats (cache, instance budget, per-entry
// detail) plus the serving layer's traffic and resilience counters.
type Stats struct {
	corestore.Stats
	Queries  int64 `json:"queries"`
	Timeouts int64 `json:"timeouts"`
	Failures int64 `json:"failures"`
	InFlight int64 `json:"in_flight"`
	// Resilience counters (see admission.go): Shed counts requests rejected
	// with 429, QueueDepth/QueueHighWater track parked requests across all
	// wait queues, and PanicsRecovered counts handler panics caught by the
	// HTTP middleware.
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
	st := Stats{
		Stats:           s.store.Stats(),
		Queries:         s.queries.Load(),
		Timeouts:        s.timeouts.Load(),
		Failures:        s.failures.Load(),
		InFlight:        s.inFlight.Load(),
		Shed:            s.shed.Load(),
		QueueDepth:      s.queueDepth.Load(),
		QueueHighWater:  s.queueHighWater.Load(),
		PanicsRecovered: s.panics.Load(),
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	st.InFlightRequests = s.inflightSnapshot(time.Now())
	return st
}
