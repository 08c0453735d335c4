package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cycledetect/internal/sweep"
)

// Handler returns the server's HTTP API:
//
//	POST /query   — one tester/detector run; JSON in, JSON out.
//	POST /sweep   — a declarative sweep spec; rows stream back as JSON
//	                lines, or as SSE when the client asks for
//	                text/event-stream (Accept header or ?format=sse).
//	GET  /stats   — cache hit rates, in-flight counts, pool occupancy,
//	                and the run-ID-tagged in-flight request table.
//	GET  /metrics — Prometheus text exposition of the full catalog
//	                (README "Observability"); absent with DisableMetrics.
//	GET  /healthz — liveness probe.
//	/debug/pprof/ — the standard Go profiler, when Options.EnablePprof.
//
// Every request is tagged with a run-ID — the client's X-Request-ID or a
// generated one — echoed in the X-Request-ID response header, carried in
// error envelopes, attached to request log lines (Options.LogRequests),
// and visible in /stats while the request is in flight.
//
// Overloaded requests (see admission.go) answer 429 with a Retry-After
// header; every handler runs under a panic-isolating middleware, so one
// poisoned request answers 500 instead of killing the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	if !s.opts.DisableMetrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.opts.EnablePprof {
		// The default-mux registrations from net/http/pprof, mounted on
		// OUR mux — importing the package must not silently expose the
		// profiler on http.DefaultServeMux users.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.recoverPanics(s.traceRequests(mux))
}

// traceRequests tags every request with a run-ID (the client's
// X-Request-ID, or a minted one) before the handlers run: into the
// request context for Query/runSweep tracking, into the X-Request-ID
// response header so clients can quote it, and — with LogRequests — into
// one structured line per completed request.
func (s *Server) traceRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = s.newRunID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(WithRunID(r.Context(), rid))
		if !s.opts.LogRequests {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.logf("serve: %s %s status=%d bytes=%d dur=%v run_id=%s",
			r.Method, r.URL.Path, sw.status, sw.bytes, time.Since(start), rid)
	})
}

// statusWriter captures the status and body size for the request log. It
// forwards Flush so the sweep stream keeps its incremental delivery.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.reg.WritePrometheus(w); err != nil {
		// The scrape connection died mid-write; nothing to answer.
		s.logf("serve: metrics scrape: %v", err)
	}
}

// recoverPanics isolates handler panics to their own request: counted,
// logged with a stack, answered 500 when the response has not started. It
// re-panics http.ErrAbortHandler (net/http's own "drop this connection"
// signal, raised on write-after-client-gone) so it keeps its meaning.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Add(1)
			s.logf("serve: panic in %s %s run_id=%s: %v\n%s",
				r.Method, r.URL.Path, RunID(r.Context()), p, debug.Stack())
			// Best effort: if the handler already streamed a body this
			// write fails or corrupts a dead stream, both harmless.
			httpError(w, r, http.StatusInternalServerError,
				fmt.Errorf("serve: internal error handling %s %s", r.Method, r.URL.Path))
		}()
		next.ServeHTTP(w, r)
	})
}

// writeOverloaded answers a shed request: 429, a Retry-After header in
// whole seconds (rounded up, floor 1 — the granularity HTTP gives us), and
// the uniform JSON error envelope with the server's finer-grained hint.
func writeOverloaded(w http.ResponseWriter, r *http.Request, ov *ErrOverloaded) {
	secs := int((ov.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, r, http.StatusTooManyRequests, ov)
}

// httpError is the uniform error envelope. The request's run-ID rides
// along so a client-reported failure maps straight to the server's logs.
func httpError(w http.ResponseWriter, r *http.Request, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if rid := RunID(r.Context()); rid != "" {
		body["run_id"] = rid
	}
	json.NewEncoder(w).Encode(body)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("serve: parsing request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.Query(r.Context(), &req)
	if err != nil {
		var ov *ErrOverloaded
		switch {
		case errors.As(err, &ov):
			writeOverloaded(w, r, ov)
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, r, http.StatusGatewayTimeout, err)
		case errors.Is(err, context.Canceled):
			// The client went away; the status is for logs only.
			httpError(w, r, http.StatusRequestTimeout, err)
		default:
			httpError(w, r, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleSweep streams a sweep's rows incrementally. The connection IS the
// result stream, so errors after the first row surface as a terminal
// "error" event rather than an HTTP status.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !decodeJSON(w, r, &spec) {
		return
	}
	if err := s.validateSweep(&spec); err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	for _, warn := range spec.Warnings() {
		s.logf("serve: sweep %q: %s", spec.Name, warn)
	}

	// Admission happens BEFORE the 200 header and stream framing are
	// committed: a shed sweep is a clean 429 the client's retry logic can
	// parse, not an "error" event buried in a stream that claimed success.
	release, err := s.admitSweep(r.Context())
	if err != nil {
		var ov *ErrOverloaded
		switch {
		case errors.As(err, &ov):
			writeOverloaded(w, r, ov)
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, r, http.StatusGatewayTimeout, err)
		default:
			httpError(w, r, http.StatusRequestTimeout, err)
		}
		return
	}
	defer release()

	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	sink := sweep.NewHTTPSink(w, sse)
	w.Header().Set("Content-Type", sink.ContentType())
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not batch the stream
	w.WriteHeader(http.StatusOK)

	// The request context carries cancellation end to end: a client that
	// kills the stream aborts the in-flight trials at their next CONGEST
	// round barrier, not at trial or job boundaries.
	sum, err := s.runSweep(r.Context(), &spec, sink)
	if derr := sink.Done(sum, err); derr != nil && err == nil {
		s.logf("serve: sweep %q: stream close: %v", spec.Name, derr)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
