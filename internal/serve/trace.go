package serve

// Run-ID tracing: every HTTP request gets an ID — the client's
// X-Request-ID or a generated one — that flows through the request
// context into Query, the structured request log, error
// envelopes, and the /stats in-flight table, so one slow or failed
// request is traceable end to end across the serving layers.
//
// Tracking is strictly opt-in per request: only contexts carrying an ID
// register an in-flight record. Callers of Query with a bare context (the
// benchmarks, embedded use) pay one context.Value lookup and nothing
// else, which is what keeps the accept path at its 16-alloc floor.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// ridKey is the context key run-IDs travel under.
type ridKey struct{}

// WithRunID returns ctx carrying the given run-ID; Query picks it up for
// in-flight tracking. The HTTP layer attaches one to every
// request; embedded callers may attach their own.
func WithRunID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

// RunID extracts the run-ID from ctx ("" when absent).
func RunID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// newRunID mints a process-unique request ID: a per-server salt (start
// time) plus a sequence number — cheap, collision-free within a server,
// and sortable in logs.
func (s *Server) newRunID() string {
	return fmt.Sprintf("%08x-%06d", uint32(s.ridSalt), s.ridSeq.Add(1))
}

// Stages of an in-flight request, coarse enough to answer "where is this
// request stuck" from /stats: waiting at the admission gate, waiting for
// an instance, or running.
const (
	stageAdmit int32 = iota
	stageAcquire
	stageRun
)

var stageNames = [...]string{"admit", "acquire", "run"}

// inflightReq is one tracked request. The stage field is atomic so the
// owning request updates it lock-free while /stats snapshots read it.
type inflightReq struct {
	id       string
	endpoint string
	start    time.Time
	stage    atomic.Int32
}

// setStage is nil-safe: untracked requests (no run-ID) carry a nil
// *inflightReq and every touch is a no-op.
func (f *inflightReq) setStage(st int32) {
	if f != nil {
		f.stage.Store(st)
	}
}

// trackInflight registers the request in the in-flight table when its
// context carries a run-ID, returning nil (a no-op handle) otherwise.
func (s *Server) trackInflight(ctx context.Context, endpoint string) *inflightReq {
	rid := RunID(ctx)
	if rid == "" {
		return nil
	}
	f := &inflightReq{id: rid, endpoint: endpoint, start: time.Now()}
	s.flMu.Lock()
	s.inflight[f] = struct{}{}
	s.flMu.Unlock()
	return f
}

// done removes the request from the in-flight table; nil-safe.
func (f *inflightReq) done(s *Server) {
	if f == nil {
		return
	}
	s.flMu.Lock()
	delete(s.inflight, f)
	s.flMu.Unlock()
}

// InFlightRequestStats is one tracked request in a Stats snapshot.
type InFlightRequestStats struct {
	// RunID is the request's trace ID (X-Request-ID or generated).
	RunID string `json:"run_id"`
	// Endpoint is "query", the one endpoint that is tracked.
	Endpoint string `json:"endpoint"`
	// Stage is where the request is right now: "admit", "acquire", "run".
	Stage string `json:"stage"`
	// ElapsedSeconds is the time since the request entered the server.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// inflightSnapshot lists the tracked in-flight requests, oldest first.
func (s *Server) inflightSnapshot(now time.Time) []InFlightRequestStats {
	s.flMu.Lock()
	out := make([]InFlightRequestStats, 0, len(s.inflight))
	for f := range s.inflight {
		st := f.stage.Load()
		name := "admit"
		if int(st) < len(stageNames) && st >= 0 {
			name = stageNames[st]
		}
		out = append(out, InFlightRequestStats{
			RunID:          f.id,
			Endpoint:       f.endpoint,
			Stage:          name,
			ElapsedSeconds: now.Sub(f.start).Seconds(),
		})
	}
	s.flMu.Unlock()
	// Oldest first: stable output for tests and operators tailing /stats.
	slices.SortFunc(out, func(a, b InFlightRequestStats) int {
		return cmp.Compare(b.ElapsedSeconds, a.ElapsedSeconds)
	})
	return out
}
