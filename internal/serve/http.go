package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"time"

	"cycledetect/internal/graph"
)

// Handler returns the server's HTTP API:
//
//	POST /query   — one tester/detector run; JSON in, JSON out.
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
// request context for Query's tracking, into the X-Request-ID
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

// statusWriter captures the status and body size for the request log.
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

// maxQueryBytes caps a /query body before it is decoded: 64 bytes for each
// of the graph.MaxFamilyEdges edges an explicit graph may list, room for an
// indented pair of 7-digit vertex numbers. The edge list itself is refused
// past that many edges while it decodes (see EdgeList).
const maxQueryBytes = 64 * graph.MaxFamilyEdges

// decodeJSON reads a body of at most limit bytes and decodes it into req
// (see decodeQuery). A larger body is a 413, refused from its
// Content-Length when that is declared and after limit bytes otherwise; a
// malformed one is a 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, req *QueryRequest, limit int64) bool {
	body, err := readBody(w, r, limit)
	if err == nil {
		err = decodeQuery(body, req)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: request body exceeds the limit of %d bytes", limit))
	} else {
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("serve: parsing request: %w", err))
	}
	return false
}

// bodyReserve is the most readBody reserves for a body before any of it
// has arrived.
const bodyReserve = 1 << 20

// readBody reads a request body of at most limit bytes. A body whose
// declared length is at most bodyReserve, an upload of up to about 90,000
// edges, is read into one buffer of exactly that length. Any other body's
// buffer doubles as it fills (never past a declared length), so a client
// that declares 64 MiB and then stalls holds 1 MiB of the server's memory,
// not 64; io.ReadAll would grow a large buffer 1.25x at a time.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := r.ContentLength // -1 when the length is not declared
	if size > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	reserve := int64(512)
	if size >= 0 {
		reserve = min(size, bodyReserve)
	}
	buf := make([]byte, 0, reserve)
	for size < 0 || int64(len(buf)) < size {
		if len(buf) == cap(buf) {
			grown := 2 * int64(cap(buf))
			if size >= 0 {
				grown = min(grown, size)
			}
			buf = append(make([]byte, 0, grown), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if int64(len(buf)) < size {
				return nil, io.ErrUnexpectedEOF // shorter than declared
			}
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeJSON(w, r, &req, maxQueryBytes) {
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
