// Load generator for the serving layer: M concurrent clients hammer one
// cached 256-node graph with tester queries over real HTTP, demonstrating
// that the first queries compile the network (cache misses: clients that
// arrive together each compile once) and every later query — from any
// client — reuses the shared immutable topology and a warm pooled instance
// (cache hits, near-zero per-query allocation). The closing /metrics
// deltas and /stats dump show the byte-weighted cache and the server-wide
// instance budget.
//
//	go run ./examples/serve                      # in-process server
//	go run ./examples/serve -addr host:8344      # against a running cmd/serve
//	go run ./examples/serve -clients 32 -queries 50
//	go run ./examples/serve -overload -queries 10
//
// With -addr unset it starts an in-process serve.Server on a loopback
// listener, so the whole demo is one command (this is also what `make
// load` runs).
//
// With -overload the in-process server gets a deliberately tiny budget
// (2 instances, 4 concurrent queries, wait queue of 2) while the same
// client fleet keeps hammering: shed requests come back as 429s, clients
// back off by the server's Retry-After hint (jittered) and retry, and the
// demo prints the shed/retry counts next to the server's own resilience
// counters — the overload runbook, live.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cycledetect/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "", "server address (empty = start an in-process server)")
		clients  = flag.Int("clients", 16, "concurrent clients")
		queries  = flag.Int("queries", 25, "queries per client")
		k        = flag.Int("k", 7, "cycle length")
		eps      = flag.Float64("eps", 0.1, "property-testing parameter")
		overload = flag.Bool("overload", false, "shrink the in-process server's budget far below the offered load and demonstrate shed/retry behavior")
	)
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		// One command, no daemon: serve from inside the process over a real
		// loopback socket, so the demo still exercises HTTP end to end.
		opts := serve.Options{}
		if *overload {
			opts = serve.Options{MaxInstances: 2, MaxConcurrentQueries: 4, MaxQueueDepth: 2}
		}
		srv := serve.NewServer(opts)
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process server on %s\n", base)
	}

	// Every client queries the SAME graph spec: one compile, shared by all.
	reqBody := func(seed uint64) []byte {
		b, _ := json.Marshal(map[string]any{
			"graph": map[string]any{"family": "gnm", "n": 256, "m": 1024, "seed": 7},
			"k":     *k,
			"eps":   *eps,
			"seed":  seed,
		})
		return b
	}

	total := *clients * *queries
	mode := ""
	if *overload {
		mode = ", OVERLOAD (budget 2 instances / 4 concurrent / queue 2)"
	}
	fmt.Printf("%d clients × %d queries, k=%d eps=%g, one shared gnm(256,1024) graph%s\n",
		*clients, *queries, *k, *eps, mode)

	// Baseline scrape: the summary below prints deltas of the server's own
	// counters, straight from the Prometheus exposition.
	baseline := scrapeMetrics(base)

	type result struct {
		latency time.Duration
		cache   string
		reject  bool
	}
	results := make([]result, total)
	var shed, retries atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < *queries; q++ {
				i := c**queries + q
				t0 := time.Now()
				for attempt := 0; ; attempt++ {
					resp, err := http.Post(base+"/query", "application/json",
						bytes.NewReader(reqBody(uint64(i)+1)))
					if err != nil {
						fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if *overload && resp.StatusCode == http.StatusTooManyRequests {
						// Shed: honor the server's Retry-After hint with
						// jitter (×[1,1.5)), so the retry wave doesn't arrive
						// as one synchronized thundering herd.
						shed.Add(1)
						if attempt >= 20 {
							fatal(fmt.Errorf("query %d: still shed after %d retries: %s", i, attempt, body))
						}
						secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
						if err != nil || secs < 1 {
							fatal(fmt.Errorf("query %d: malformed 429 Retry-After %q", i, resp.Header.Get("Retry-After")))
						}
						retries.Add(1)
						time.Sleep(time.Duration(float64(secs) * float64(time.Second) * (1 + rand.Float64()/2)))
						continue
					}
					if resp.StatusCode != http.StatusOK {
						fatal(fmt.Errorf("query %d: HTTP %d: %s", i, resp.StatusCode, body))
					}
					var qr serve.QueryResponse
					if err := json.Unmarshal(body, &qr); err != nil {
						fatal(err)
					}
					results[i] = result{latency: time.Since(t0), cache: qr.Cache, reject: qr.Rejected}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var hits, rejects int
	lats := make([]time.Duration, 0, total)
	for _, r := range results {
		if r.cache == "hit" {
			hits++
		}
		if r.reject {
			rejects++
		}
		lats = append(lats, r.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }

	fmt.Printf("done: %d queries in %v (%.0f q/s)\n", total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Printf("cache: %d hits / %d queries (misses are first queries that compiled concurrently; every later query shares one compiled topology)\n",
		hits, total)
	fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	fmt.Printf("verdicts: %d rejected / %d (distinct seeds; each rejection certifies a real C%d)\n",
		rejects, total, *k)
	if *overload {
		fmt.Printf("overload: %d sheds (429) absorbed by %d client retries; every query still completed\n",
			shed.Load(), retries.Load())
	}

	// The server's own view of the load, as Prometheus deltas: what a
	// dashboard would show. The mean run is the run-latency histogram's
	// sum/count over just these runs.
	after := scrapeMetrics(base)
	d := func(series string) float64 { return after[series] - baseline[series] }
	sheds := 0.0
	for _, reason := range []string{"query", "instances", "deadline"} {
		sheds += d(`serve_shed_total{reason="` + reason + `"}`)
	}
	runs := d("serve_run_seconds_count")
	mean := time.Duration(0)
	if runs > 0 {
		mean = time.Duration(d("serve_run_seconds_sum") / runs * float64(time.Second))
	}
	fmt.Printf("from /metrics: queries=%.0f sheds=%.0f runs=%.0f mean run=%v\n",
		d("serve_queries_total"), sheds, runs, mean.Round(time.Microsecond))

	// Server-side view: byte-weighted cache, instance budget, hit rate.
	st := fetchStats(base)
	fmt.Printf("server: graphs_cached=%d cache_bytes=%d compiles=%d instances_live=%d/%d hit_rate=%.3f timeouts=%d failures=%d\n",
		st.GraphsCached, st.CacheBytes, st.Compiles, st.InstancesLive, st.InstanceBudget,
		st.HitRate, st.Timeouts, st.Failures)
	fmt.Printf("server: shed=%d queue_high_water=%d panics_recovered=%d\n",
		st.Shed, st.QueueHighWater, st.PanicsRecovered)
	for _, e := range st.Entries {
		fmt.Printf("  entry %s: n=%d m=%d bytes=%d hits=%d age=%.1fs idle=%d\n",
			e.Key, e.N, e.M, e.Bytes, e.Hits, e.AgeSeconds, e.InstancesIdle)
	}
}

// fetchStats decodes GET /stats.
func fetchStats(base string) serve.Stats {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fatal(err)
	}
	return st
}

// scrapeMetrics fetches /metrics and parses every sample line into a
// series → value map (series includes its labels, e.g.
// `serve_shed_total{reason="query"}`). A server running with -metrics=false
// just yields an empty map and the deltas print as zeros.
func scrapeMetrics(base string) map[string]float64 {
	out := map[string]float64{}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "examples/serve:", err)
	os.Exit(1)
}
