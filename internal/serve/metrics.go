package serve

// The server's Prometheus-style instrumentation hub: one serveMetrics
// owns the metrics.Registry behind GET /metrics and every series the
// serving path records into — per-stage latency histograms (admission
// queue wait, instance acquire, engine run, end-to-end per endpoint),
// shed/cache/budget counters, and per-engine run metrics (serveMetrics is
// the network.RunCollector every spawned instance reports to).
//
// Counters that already exist as the Server's atomic fields (queries,
// sheds, ...) are exposed through CounterFunc/GaugeFunc reading the same
// atomics — one source of truth, no double counting — and cache/instance
// state is read from the corestore.Store's accessors at scrape time only
// (its mutex-guarded gauges lock briefly). Recording sites never touch the registry
// lock: everything on the query path is an atomic bump or a histogram
// Observe, which is why arming all of this leaves the accept path at its
// 16-alloc floor (BenchmarkServeConcurrent armed variants) and the reused
// engine run at 0 allocs (network's TestRunCollectorAllocFree).
//
// The run-duration histogram doubles as the admission controller's
// latency oracle: deadline-aware shedding and Retry-After hints read
// Quantile(0.5) from it, replacing the retired latencyTracker whose p50
// sorted a 128-entry scratch under a mutex on every admission decision.

import (
	"time"

	"cycledetect/internal/metrics"
	"cycledetect/internal/network"
)

// engineMetrics is the engine's per-run series, pre-registered so
// RecordRun is pure atomic bumps.
type engineMetrics struct {
	runs     *metrics.Counter
	rounds   *metrics.Counter
	messages *metrics.Counter
	bits     *metrics.Counter
	canceled *metrics.Counter
	failed   *metrics.Counter
	msgHist  *metrics.Histogram // messages per run, pow2 buckets
	maxBits  *metrics.Gauge     // largest single payload ever, bits
}

// serveMetrics owns the registry and every recorded series. It implements
// network.RunCollector; the server passes it to every instance it spawns.
type serveMetrics struct {
	reg *metrics.Registry

	// Per-stage latency histograms (nanosecond native, seconds exposed).
	queueWaitQuery *metrics.Histogram // admission gate wait, /query
	queueWaitInst  *metrics.Histogram // instance-budget wait episodes
	acquire        *metrics.Histogram // lookup-to-checkout, successful acquires
	run            *metrics.Histogram // successful engine runs (the admission oracle)
	query          *metrics.Histogram // Query end to end, successes

	// Shed counters by reason (the endpoint/limit that rejected).
	shedQuery    *metrics.Counter
	shedInst     *metrics.Counter
	shedDeadline *metrics.Counter

	engine engineMetrics
}

// newServeMetrics registers the full catalog against s. The fn-backed
// series capture s; gauge funcs reading mutex-guarded state take s.mu
// briefly at scrape time (scrapes serialize on the registry, recording
// sites never call them).
func newServeMetrics(s *Server) *serveMetrics {
	r := metrics.NewRegistry()
	m := &serveMetrics{reg: r}

	// Traffic counters — the same atomics /stats snapshots.
	r.CounterFunc("serve_queries_total", "Queries received (Server.Query calls).",
		s.queries.Load)
	r.CounterFunc("serve_timeouts_total", "Queries that exhausted their deadline (504s).",
		s.timeouts.Load)
	r.CounterFunc("serve_failures_total", "Requests failed for reasons other than shed/cancel.",
		s.failures.Load)
	r.CounterFunc("serve_panics_recovered_total", "Handler panics isolated by the HTTP middleware.",
		s.panics.Load)
	r.GaugeFunc("serve_in_flight", "Queries admitted and executing right now.",
		s.inFlight.Load)
	r.GaugeFunc("serve_queue_depth", "Requests parked in admission/budget wait queues.",
		s.queueDepth.Load)
	r.GaugeFunc("serve_queue_high_water", "Highest queue depth ever observed.",
		s.queueHighWater.Load)

	// Shed counters, by the limit that rejected. The reasons sum to the
	// /stats "shed" total.
	shedHelp := "Requests shed by admission control, by rejecting limit."
	m.shedQuery = r.Counter("serve_shed_total", shedHelp, metrics.L("reason", "query"))
	m.shedInst = r.Counter("serve_shed_total", shedHelp, metrics.L("reason", "instances"))
	m.shedDeadline = r.Counter("serve_shed_total", shedHelp, metrics.L("reason", "deadline"))

	// Compiled-core cache and instance budget: every series reads the
	// store's own counters — one source of truth shared with /stats. The
	// closures dereference s.store at scrape time (newServeMetrics runs
	// before the store is attached; scrapes cannot happen until NewServer
	// returns).
	r.CounterFunc("serve_cache_hits_total", "Lookups served by a cached compiled core.",
		func() int64 { return s.store.Hits() })
	r.CounterFunc("serve_cache_misses_total", "Lookups that had to compile.",
		func() int64 { return s.store.Misses() })
	r.CounterFunc("serve_cache_evictions_total", "Compiled cores evicted from the LRU.",
		func() int64 { return s.store.Evictions() })
	r.CounterFunc("serve_cache_compiles_total", "Topology compilations ever performed.",
		func() int64 { return s.store.Compiles() })
	r.GaugeFunc("serve_cache_graphs", "Compiled cores currently cached.",
		func() int64 { return int64(s.store.GraphsCached()) })
	r.GaugeFunc("serve_cache_bytes", "Summed compiled size of cached cores.",
		func() int64 { return s.store.CacheBytes() })
	r.GaugeFunc("serve_cache_bytes_max", "The cache byte budget eviction enforces.",
		func() int64 { return s.store.MaxCacheBytes() })

	// Instance budget — the saturation signals.
	r.GaugeFunc("serve_instances_live", "Live instances server-wide: idle + in-flight.",
		func() int64 { return int64(s.store.InstancesLive()) })
	r.GaugeFunc("serve_instances_idle", "Warm instances parked in pools.",
		func() int64 { return int64(s.store.InstancesIdle()) })
	r.GaugeFunc("serve_instance_budget", "The server-wide cap on live instances.",
		func() int64 { return int64(s.store.MaxInstances()) })
	r.GaugeFunc("serve_instance_bytes", "Bytes pinned by live instances.",
		func() int64 { return s.store.InstanceBytes() })
	r.GaugeFunc("serve_instance_bytes_max", "The byte cap on live instances.",
		func() int64 { return s.store.MaxInstanceBytes() })

	// Per-stage latency histograms.
	waitHelp := "Admission wait before service, by queue."
	m.queueWaitQuery = r.Histogram("serve_queue_wait_seconds", waitHelp,
		metrics.DurationBounds, metrics.DurationScale, metrics.L("queue", "query"))
	m.queueWaitInst = r.Histogram("serve_queue_wait_seconds", waitHelp,
		metrics.DurationBounds, metrics.DurationScale, metrics.L("queue", "instances"))
	m.acquire = r.Histogram("serve_acquire_seconds",
		"Cache lookup to instance checkout, successful acquires.",
		metrics.DurationBounds, metrics.DurationScale)
	m.run = r.Histogram("serve_run_seconds",
		"Engine run time of successful queries (feeds deadline shedding and Retry-After).",
		metrics.DurationBounds, metrics.DurationScale)
	m.query = r.Histogram("serve_query_seconds",
		"Query end to end (admission + acquire + run), successes.",
		metrics.DurationBounds, metrics.DurationScale)

	// Engine run metrics, fed by RecordRun via the instances' collector
	// hook — the paper's own cost measures (rounds, messages) per run. The
	// engine label keeps the series names scrapers already know.
	l := metrics.L("engine", "bsp")
	m.engine = engineMetrics{
		runs:     r.Counter("engine_runs_total", "Engine runs completed, any outcome.", l),
		rounds:   r.Counter("engine_rounds_total", "CONGEST rounds executed.", l),
		messages: r.Counter("engine_messages_total", "Messages delivered (non-nil payloads).", l),
		bits:     r.Counter("engine_bits_total", "Total payload volume, bits.", l),
		canceled: r.Counter("engine_canceled_total", "Runs aborted by their context.", l),
		failed:   r.Counter("engine_failed_total", "Runs aborted by a node failure.", l),
		msgHist: r.Histogram("engine_run_messages", "Messages delivered per successful run.",
			metrics.Pow2Buckets(64, 20), 0, l),
		maxBits: r.Gauge("engine_max_message_bits",
			"Largest single payload observed, bits (CONGEST bandwidth high-water).", l),
	}
	return m
}

// RecordRun implements network.RunCollector: every instance the server
// spawns reports each run here. Pure atomic bumps — it executes on the
// run's own goroutine, inside the query's latency budget.
func (m *serveMetrics) RecordRun(rm network.RunMetrics) {
	e := &m.engine
	e.runs.Inc()
	e.rounds.Add(int64(rm.Rounds))
	switch {
	case rm.Canceled:
		e.canceled.Inc()
	case rm.Failed:
		e.failed.Inc()
	default:
		e.messages.Add(rm.Messages)
		e.bits.Add(rm.Bits)
		e.msgHist.Observe(rm.Messages)
		e.maxBits.Max(int64(rm.MaxMessageBits))
	}
}

// runP50 is the admission controller's latency oracle: the median
// successful run time from the shared histogram, 0 before the first
// success (callers gate on that). Allocation-free — a bounded scan over
// the bucket atomics, no lock, no sort.
func (s *Server) runP50() time.Duration {
	return time.Duration(s.met.run.Quantile(0.5))
}
