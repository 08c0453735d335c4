// Command serve runs the query-serving layer as an HTTP server: concurrent
// tester/detector queries multiplexed over an LRU cache of compiled
// networks, with warm per-graph instance pools (see internal/serve).
//
//	serve                         # listen on :8344
//	serve -addr :9000 -max-cache-bytes 67108864 -max-instances 8 -timeout 10s
//
// Example session:
//
//	curl -s localhost:8344/query -d '{
//	  "graph": {"family": "gnm", "n": 256, "m": 1024, "seed": 7},
//	  "k": 7, "eps": 0.1, "seed": 42
//	}'
//	curl -s localhost:8344/stats
//	curl -s localhost:8344/metrics          # Prometheus text exposition
//
// Parameter sweeps are not served; cmd/sweep runs them.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight queries
// finish (bounded by -drain), new connections are refused, and every
// pooled engine is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cycledetect/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8344", "listen address")
		maxGraphs     = flag.Int("max-graphs", 0, "cache capacity in entries (secondary guard; 0 = default 64, negative = unbounded)")
		maxCacheBytes = flag.Int64("max-cache-bytes", 0, "cache capacity in compiled bytes (0 = default 256 MiB, negative = unbounded)")
		maxInstances  = flag.Int("max-instances", 0, "server-wide live-instance budget, all graphs; 0 = GOMAXPROCS")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-query deadline; a timed-out query answers 504 when its run next reaches a round barrier (up to one round late, or after a cold instance's node build)")
		nwWorkers     = flag.Int("network-workers", 1, "BSP workers inside each instance")
		bandwidth     = flag.Int("bandwidth-bits", 0, "per-message budget in bits (0 = unenforced)")
		drain         = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		// Overload controls (see the README's "Overload behavior" runbook):
		// what saturates answers 429 + Retry-After instead of parking to 504.
		maxInstBytes = flag.Int64("max-instance-bytes", 0, "byte budget of live instances, weighted by compiled size (0 = default 256 MiB, negative = unbounded)")
		maxQueue     = flag.Int("max-queue-depth", 0, "bound on the query gate's wait queue, the one admission queue; arrivals past it shed with 429 (0 = default 64, negative = unbounded)")
		maxQueries   = flag.Int("max-concurrent-queries", 0, "queries in service at once, those waiting for an instance included (0 = default max(4*instances, 2*GOMAXPROCS); negative = ungated, and then only -timeout bounds the wait for an instance)")

		// Observability (see the README's "Observability" runbook).
		metricsOn   = flag.Bool("metrics", true, "expose GET /metrics (Prometheus text format)")
		pprofOn     = flag.Bool("pprof", false, "mount the Go profiler under /debug/pprof/")
		logRequests = flag.Bool("log-requests", false, "log one line per HTTP request, tagged with its run-ID")
	)
	flag.Parse()

	srv := serve.NewServer(serve.Options{
		MaxGraphs:            *maxGraphs,
		MaxCacheBytes:        *maxCacheBytes,
		MaxInstances:         *maxInstances,
		QueryTimeout:         *timeout,
		NetworkWorkers:       *nwWorkers,
		BandwidthBits:        *bandwidth,
		MaxInstanceBytes:     *maxInstBytes,
		MaxQueueDepth:        *maxQueue,
		MaxConcurrentQueries: *maxQueries,
		DisableMetrics:       !*metricsOn,
		EnablePprof:          *pprofOn,
		LogRequests:          *logRequests,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("serve: listening on %s (max-graphs=%d, timeout=%v)", *addr, *maxGraphs, *timeout)

	select {
	case err := <-errCh:
		// Listen failed before any signal.
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("serve: shutting down (drain %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("serve: drain incomplete: %v", err)
	}
	srv.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("serve: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
