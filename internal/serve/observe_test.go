package serve

// Tests for the observability surface: /metrics exposition over HTTP,
// scrape-under-load safety, run-ID tracing through logs, error envelopes
// and the /stats in-flight table, and the sweep width handshake.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
)

// scrape fetches /metrics and returns the body, asserting the Prometheus
// text content type.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// metricValue finds `name value` or `name{labels} value` in an exposition
// body and returns the value; -1 when the series is absent.
func metricValue(body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestHTTPMetricsExposition drives real traffic (queries with a cache hit,
// a streamed sweep) and validates the scrape: catalog presence with
// HELP/TYPE, counters consistent with /stats, engine run metrics fed by
// the collector, sweep progress counters, and histogram cumulativity.
func TestHTTPMetricsExposition(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"graph":{"family":"gnm","n":48,"m":160,"seed":3},"k":5,"eps":0.1,"seed":2}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, resp.StatusCode)
		}
	}
	spec := `{"graphs":[{"family":"cycle","n":12}],"k":[5],"eps":[0.2],"trials":2,"seed":1}`
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d", resp.StatusCode)
	}

	out := scrape(t, ts.URL)

	// Catalog: every family the runbook documents exists, with HELP and
	// TYPE preceding its samples.
	for _, name := range []string{
		"serve_queries_total", "serve_sweeps_total", "serve_timeouts_total",
		"serve_failures_total", "serve_panics_recovered_total",
		"serve_in_flight", "serve_queue_depth", "serve_queue_high_water",
		"serve_shed_total", "serve_cache_hits_total", "serve_cache_misses_total",
		"serve_cache_evictions_total", "serve_cache_compiles_total",
		"serve_cache_graphs", "serve_cache_bytes", "serve_cache_bytes_max",
		"serve_instances_live", "serve_instances_idle", "serve_instance_budget",
		"serve_instance_bytes", "serve_instance_bytes_max",
		"serve_faults_injected_total",
		"serve_queue_wait_seconds", "serve_acquire_seconds", "serve_run_seconds",
		"serve_query_seconds", "serve_sweep_seconds",
		"engine_runs_total", "engine_rounds_total", "engine_messages_total",
		"engine_bits_total", "engine_canceled_total", "engine_failed_total",
		"engine_fault_runs_total", "engine_run_messages", "engine_max_message_bits",
		"sweep_jobs_total", "sweep_jobs_done_total", "sweep_trials_total",
		"sweep_retries_total", "sweep_active_workers",
	} {
		if !strings.Contains(out, "# HELP "+name+" ") {
			t.Errorf("missing HELP for %s", name)
		}
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("missing TYPE for %s", name)
		}
	}

	// Counters agree with the traffic just driven (CounterFunc reads the
	// same atomics /stats reports — no double counting).
	if v := metricValue(out, "serve_queries_total"); v != 2 {
		t.Errorf("serve_queries_total = %v, want 2", v)
	}
	if v := metricValue(out, "serve_cache_hits_total"); v != 1 {
		t.Errorf("serve_cache_hits_total = %v, want 1", v)
	}
	if v := metricValue(out, "serve_sweeps_total"); v != 1 {
		t.Errorf("serve_sweeps_total = %v, want 1", v)
	}
	// The collector fed per-engine run metrics: 2 query reps + 2 sweep
	// trials all ran on the default BSP engine.
	if v := metricValue(out, `engine_runs_total{engine="bsp"}`); v < 3 {
		t.Errorf(`engine_runs_total{engine="bsp"} = %v, want >= 3`, v)
	}
	if v := metricValue(out, `engine_rounds_total{engine="bsp"}`); v <= 0 {
		t.Errorf("engine_rounds_total = %v, want > 0", v)
	}
	if v := metricValue(out, `engine_messages_total{engine="bsp"}`); v <= 0 {
		t.Errorf("engine_messages_total = %v, want > 0", v)
	}
	// Sweep progress counters reflect the finished sweep, and the active
	// worker gauge has drained back to zero.
	if v := metricValue(out, "sweep_jobs_done_total"); v != 1 {
		t.Errorf("sweep_jobs_done_total = %v, want 1", v)
	}
	if v := metricValue(out, "sweep_trials_total"); v != 2 {
		t.Errorf("sweep_trials_total = %v, want 2", v)
	}
	if v := metricValue(out, "sweep_active_workers"); v != 0 {
		t.Errorf("sweep_active_workers = %v, want 0 after the sweep", v)
	}
	// The run histogram saw every successful engine-backed query; buckets
	// are cumulative and the +Inf bucket equals the count.
	if v := metricValue(out, "serve_run_seconds_count"); v != 2 {
		t.Errorf("serve_run_seconds_count = %v, want 2", v)
	}
	assertCumulative(t, out, "serve_run_seconds")
	assertCumulative(t, out, `serve_queue_wait_seconds`)
}

// assertCumulative checks that a histogram's buckets never decrease and
// its +Inf bucket equals its _count.
func assertCumulative(t *testing.T, body, name string) {
	t.Helper()
	var prev float64
	var inf float64 = -1
	seen := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		seen = true
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("%s: bad bucket line %q", name, line)
		}
		if v < prev && !strings.Contains(line, `le="+Inf"`) {
			t.Fatalf("%s: bucket decreased in %q", name, line)
		}
		prev = v
		if strings.Contains(line, `le="+Inf"`) {
			inf = v
			prev = 0 // next labeled series restarts
		}
	}
	if !seen {
		t.Fatalf("no buckets for %s", name)
	}
	if inf < 0 {
		t.Fatalf("%s: no +Inf bucket", name)
	}
}

// TestMetricsDisabled: DisableMetrics removes the endpoint entirely.
func TestMetricsDisabled(t *testing.T) {
	s := NewServer(Options{DisableMetrics: true})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /metrics: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestPprofMounting: the profiler is opt-in — absent by default, live
// under /debug/pprof/ with EnablePprof.
func TestPprofMounting(t *testing.T) {
	s := NewServer(Options{EnablePprof: true})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: HTTP %d, want 200", resp.StatusCode)
	}

	off := NewServer(Options{})
	defer off.Close()
	ts2 := httptest.NewServer(off.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}
}

// TestConcurrentScrapeUnderLoad hammers the server with queries while
// scraping /metrics continuously: scrapes must stay consistent (counters
// only grow, histograms stay cumulative) and never block or be blocked by
// admissions. Run with -race this doubles as the data-race gate for every
// recording site.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const loaders, queriesEach, scrapes = 4, 6, 10
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				body := fmt.Sprintf(
					`{"graph":{"family":"cycle","n":%d},"k":5,"reps":1,"seed":%d}`,
					16+l, i)
				resp, err := http.Post(ts.URL+"/query", "application/json",
					strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(l)
	}
	var lastQueries float64
	for i := 0; i < scrapes; i++ {
		out := scrape(t, ts.URL)
		if v := metricValue(out, "serve_queries_total"); v < lastQueries {
			t.Fatalf("serve_queries_total went backwards: %v -> %v", lastQueries, v)
		} else {
			lastQueries = v
		}
		assertCumulative(t, out, "serve_queue_wait_seconds")
	}
	wg.Wait()
	out := scrape(t, ts.URL)
	if v := metricValue(out, "serve_queries_total"); v != loaders*queriesEach {
		t.Fatalf("serve_queries_total = %v after load, want %d", v, loaders*queriesEach)
	}
}

// TestRunIDTracing follows one request ID end to end: honored from
// X-Request-ID and echoed back, quoted in error envelopes, printed on the
// request log line, and — while the request is parked inside the server —
// visible with its stage in the /stats in-flight table.
func TestRunIDTracing(t *testing.T) {
	var logMu sync.Mutex
	var logLines []string
	s := NewServer(Options{
		LogRequests: true,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A malformed request with a client-chosen ID: the ID comes back in
	// the header AND inside the JSON error envelope.
	req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{`))
	req.Header.Set("X-Request-ID", "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-7" {
		t.Fatalf("X-Request-ID echoed as %q", got)
	}
	var envelope struct {
		Error string `json:"error"`
		RunID string `json:"run_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if envelope.RunID != "trace-me-7" || envelope.Error == "" {
		t.Fatalf("error envelope lacks the run-ID: %+v", envelope)
	}

	// Without a client ID the server mints one.
	resp2, err := http.Post(ts.URL+"/healthz", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	// (POST /healthz is a 405 from the mux — still traced.)
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on response")
	}

	// The request log line carries the same ID.
	logMu.Lock()
	joined := strings.Join(logLines, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "run_id=trace-me-7") ||
		!strings.Contains(joined, "status=400") {
		t.Fatalf("request log missing the traced line:\n%s", joined)
	}

	// In-flight visibility: hold the query gate's only implicit slot by
	// acquiring it directly, then park a tracked query behind it — /stats
	// must show the run-ID at stage "admit" while it waits.
	s2 := NewServer(Options{MaxConcurrentQueries: 1})
	defer s2.Close()
	if err := s2.queryGate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx := WithRunID(context.Background(), "parked-1")
		_, err := s2.Query(ctx, &QueryRequest{
			Graph: GraphRequest{Family: "cycle", N: 10}, K: 5, Reps: 1,
		})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s2.Stats()
		if len(st.InFlightRequests) == 1 {
			fl := st.InFlightRequests[0]
			if fl.RunID != "parked-1" || fl.Endpoint != "query" || fl.Stage != "admit" {
				t.Fatalf("in-flight entry: %+v", fl)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tracked query never appeared in /stats in-flight table")
		}
		time.Sleep(time.Millisecond)
	}
	s2.queryGate.release()
	if err := <-done; err != nil {
		t.Fatalf("parked query after release: %v", err)
	}
	if st := s2.Stats(); len(st.InFlightRequests) != 0 {
		t.Fatalf("in-flight table not drained: %+v", st.InFlightRequests)
	}
}

// TestSweepWidthHandshake: the provider honors the scheduler's budgeted
// engine width (pt.Workers) instead of the per-query default, and width is
// part of the pool identity so differently-sized warm instances never mix.
func TestSweepWidthHandshake(t *testing.T) {
	// The provider clamps widths to the hardware; make sure two cores are
	// "available" so the budgeted width survives the clamp on 1-CPU CI.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	s := NewServer(Options{NetworkWorkers: 1})
	defer s.Close()
	p := coreProvider{s: s}
	pt := sweep.TrialPoint{
		Graph: sweep.GraphSpec{Family: "cycle", N: 16},
		K:     5, Eps: 0.2, Seed: 1,
		Engine: network.EngineBSP,
	}

	pt.Workers = 2
	inst2, rel2, err := p.Acquire(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst2.Workers(); got != 2 {
		t.Fatalf("budgeted width 2 gave an instance of width %d", got)
	}
	rel2()

	// Width 0 falls back to the server's per-query NetworkWorkers — and
	// must NOT reuse the width-2 instance parked above.
	pt.Workers = 0
	inst1, rel1, err := p.Acquire(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst1.Workers(); got != 1 {
		t.Fatalf("default width gave an instance of width %d", got)
	}
	if inst1 == inst2 {
		t.Fatal("width-1 checkout poached the width-2 warm instance")
	}
	rel1()
}
