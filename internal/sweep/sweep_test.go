package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/network"
)

func demoSpec() *Spec {
	return &Spec{
		Name: "test",
		Graphs: []GraphSpec{
			{Family: "far", N: 40},
			{Family: "gnm", N: 32, M: 96},
		},
		K:       []int{3, 5},
		Eps:     []float64{0.25, 0.1},
		Engines: []string{"bsp"},
		Trials:  4,
		Seed:    7,
	}
}

func collect(t *testing.T, spec *Spec) []Result {
	t.Helper()
	var out []Result
	sum, err := Run(spec, FuncSink(func(r *Result) error {
		out = append(out, *r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != len(out) {
		t.Fatalf("summary reports %d jobs, sink saw %d", sum.Jobs, len(out))
	}
	return out
}

// TestSweepDeterministic: two runs of the same spec produce identical
// results (modulo wall time), independent of worker scheduling.
func TestSweepDeterministic(t *testing.T) {
	a := collect(t, demoSpec())
	one := demoSpec()
	one.Workers = 1
	b := collect(t, one)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Elapsed, y.Elapsed = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("job %d differs between runs:\n %+v\n %+v", i, x, y)
		}
	}
}

// TestSweepOrderAndSkip: results arrive in job-index order and the
// non-runnable grid points of the "far" family are skipped, not run:
// k=5 eps=0.25 violates ε < 1/k, and k=3 eps=0.25 needs q=14 planted
// triangles (42 vertices) which do not fit in n=40.
func TestSweepOrderAndSkip(t *testing.T) {
	spec := demoSpec()
	var sum *Summary
	var out []Result
	var err error
	sum, err = Run(spec, FuncSink(func(r *Result) error {
		out = append(out, *r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 2 {
		t.Fatalf("want 2 skipped grid points (far k=5 eps=0.25; far k=3 eps=0.25), got %d", sum.Skipped)
	}
	for i, r := range out {
		if r.Index != i {
			t.Fatalf("result %d has job index %d; streaming must be in job order", i, r.Index)
		}
	}
	// Skips count grid points, not jobs: a spec that lists the engine
	// twice must not double the skip count.
	two := demoSpec()
	two.Engines = []string{"bsp", "bsp"}
	if _, skipped := two.Jobs(); skipped != 2 {
		t.Fatalf("want 2 skipped grid points with two engine entries, got %d", skipped)
	}
	// Exact feasibility boundary (generator needs strict q > ε·m): the
	// point must be SKIPPED by the feasibility filter, never reach the
	// generator's panic and abort the sweep.
	bnd := &Spec{Graphs: []GraphSpec{{Family: "far", N: 20}}, K: []int{3}, Eps: []float64{0.24}, Trials: 1}
	if err := bnd.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, skipped := bnd.Jobs()
	if len(jobs) != 0 || skipped != 1 {
		t.Fatalf("boundary point: want 0 jobs / 1 skipped, got %d / %d", len(jobs), skipped)
	}
}

// TestSweepMatchesDirectRuns: the scheduler's aggregates — through network
// reuse, node caching, and worker sharding — equal per-trial runs on fresh
// single-use networks, summed by hand.
func TestSweepMatchesDirectRuns(t *testing.T) {
	spec := demoSpec()
	jobs, _ := spec.Jobs()
	results := collect(t, spec)
	for i, job := range jobs {
		g, err := buildGraph(TrialPoint{Graph: job.Graph, K: job.K, Eps: job.Eps}.key(), spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rejects := 0
		var msgs int64
		for tr := 0; tr < spec.Trials; tr++ {
			prog := &core.Tester{K: job.K, Eps: job.Eps}
			nw, err := network.New(g, network.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := nw.RunProgram(prog, trialSeed(spec.Seed, job.SeedKey, tr))
			nw.Close()
			if err != nil {
				t.Fatal(err)
			}
			if core.Summarize(res.Outputs, res.IDs).Reject {
				rejects++
			}
			msgs += res.Stats.MessagesSent
		}
		got := results[i]
		if got.Rejects != rejects {
			t.Fatalf("job %d: scheduler counted %d rejects, direct runs %d", i, got.Rejects, rejects)
		}
		if want := float64(msgs) / float64(spec.Trials); got.AvgMessages != want {
			t.Fatalf("job %d: avg messages %v, want %v", i, got.AvgMessages, want)
		}
	}
}

// TestSweepDetectionHolds: on ε-far instances the amplified tester must
// reject in at least 2/3 of trials — the sweep is a reproduction tool, so
// its output must exhibit Theorem 1.
func TestSweepDetectionHolds(t *testing.T) {
	spec := &Spec{
		Graphs: []GraphSpec{{Family: "far", N: 60}},
		K:      []int{3, 5},
		Eps:    []float64{0.08},
		Trials: 12,
		Seed:   3,
	}
	for _, r := range collect(t, spec) {
		if r.RejectRate < 2.0/3.0 {
			t.Fatalf("job %d (k=%d eps=%g): reject rate %.2f below 2/3", r.Index, r.K, r.Eps, r.RejectRate)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no graphs", func(s *Spec) { s.Graphs = nil }, "no graphs"},
		{"bad family", func(s *Spec) { s.Graphs[0].Family = "petersen" }, "unknown graph family"},
		{"tiny n", func(s *Spec) { s.Graphs[0].N = 1 }, "n >= 2"},
		{"no k", func(s *Spec) { s.K = nil }, "no k values"},
		{"k too small", func(s *Spec) { s.K = []int{2} }, "k must be at least 3"},
		{"no eps", func(s *Spec) { s.Eps = nil }, "no eps"},
		{"eps range", func(s *Spec) { s.Eps = []float64{1.5} }, "outside (0,1)"},
		{"bad engine", func(s *Spec) { s.Engines = []string{"quantum"} }, "unknown engine"},
		{"channels engine", func(s *Spec) { s.Engines = []string{"bsp", "channels"} }, `unknown engine "channels"`},
		{"no trials", func(s *Spec) { s.Trials = 0 }, "trials must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := demoSpec()
			tc.mut(spec)
			_, err := Run(spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestCSVSinkShape checks the streaming CSV layout and its determinism
// with the elapsed column disabled.
func TestCSVSinkShape(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		sink := NewCSVSink(&buf)
		sink.Elapsed = false
		spec := demoSpec()
		if _, err := Run(spec, sink); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "family,n,m,k,eps,engine,trials,reps,rounds,rejects,reject_rate") {
		t.Fatalf("unexpected header: %s", lines[0])
	}
	spec := demoSpec()
	jobs, _ := spec.Jobs()
	if len(lines) != 1+len(jobs) {
		t.Fatalf("want %d rows after the header, got %d", len(jobs), len(lines)-1)
	}
	if again := render(); again != out {
		t.Fatal("CSV output not deterministic across runs")
	}
}

// TestCSVSinkStreamsIncrementally asserts the streaming guarantee at the
// byte level: every job's CSV row must reach the underlying writer before
// Run moves on — not sit in csv.Writer's buffer until sweep end. Sinks are
// written in registration order per result, so a probe sink registered
// after the CSV sink observes the buffer length right after each row; it
// must grow row by row while the sweep is still running.
func TestCSVSinkStreamsIncrementally(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	var sizes []int
	probe := FuncSink(func(r *Result) error {
		sizes = append(sizes, buf.Len())
		return nil
	})
	spec := demoSpec()
	if _, err := Run(spec, sink, probe); err != nil {
		t.Fatal(err)
	}
	jobs, _ := spec.Jobs()
	if len(sizes) != len(jobs) {
		t.Fatalf("probe saw %d results, want %d", len(sizes), len(jobs))
	}
	prev := 0
	for i, s := range sizes {
		if s <= prev {
			t.Fatalf("job %d: CSV bytes were still buffered when the row was emitted (%d <= %d bytes)", i, s, prev)
		}
		prev = s
	}
}

// TestGraphSpecStringResolvesDefaultM: the gnm default (m = 4n) must be
// resolved before formatting, so logs and error messages name the graph
// that is actually built instead of "m=0".
func TestGraphSpecStringResolvesDefaultM(t *testing.T) {
	cases := map[string]GraphSpec{
		"gnm(n=128,m=512)": {Family: "gnm", N: 128},
		"gnm(n=128,m=300)": {Family: "gnm", N: 128, M: 300},
		"tree(n=9)":        {Family: "tree", N: 9},
	}
	for want, gs := range cases {
		if got := gs.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", gs, got, want)
		}
	}
}

// TestJSONSinkLines checks one valid JSON object per result.
func TestJSONSinkLines(t *testing.T) {
	var buf bytes.Buffer
	spec := demoSpec()
	if _, err := Run(spec, NewJSONSink(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	jobs, _ := spec.Jobs()
	if len(lines) != len(jobs) {
		t.Fatalf("want %d JSON lines, got %d", len(jobs), len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "{") || !strings.Contains(ln, "\"reject_rate\"") {
			t.Fatalf("bad JSON line: %s", ln)
		}
	}
}

// TestRunCtxCancelStopsMidGrid: cancelling the sweep context after the
// first row aborts the sweep — the scheduler returns the context error and
// stops emitting, even though most of the grid (and most trials of the
// in-flight jobs) is still pending. In-flight trials are cut off inside
// RunProgramCtx, not at trial boundaries.
func TestRunCtxCancelStopsMidGrid(t *testing.T) {
	spec := &Spec{
		Graphs:  []GraphSpec{{Family: "gnm", N: 64, M: 256}},
		K:       []int{5, 6, 7},
		Eps:     []float64{0.25, 0.1, 0.05},
		Trials:  200,
		Seed:    7,
		Workers: 1, // serialize so "after the first row" is well defined
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, err := RunCtx(ctx, spec, nil, FuncSink(func(r *Result) error {
		rows++
		cancel()
		return nil
	}))
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want the context error through the failure path, got: %v", err)
	}
	if rows >= 9 {
		t.Fatalf("sweep ran the whole grid (%d rows) despite cancellation", rows)
	}
}

// TestRunCtxCustomProvider: the scheduler runs every trial on instances the
// provider hands out (and releases each one), with results identical to the
// standalone substrate — the contract internal/serve relies on to route
// /sweep trials through its query-traffic cache.
func TestRunCtxCustomProvider(t *testing.T) {
	spec := demoSpec()
	want := collect(t, spec)

	prov := &countingProvider{inner: newLocalProvider(spec, 1)}
	defer prov.inner.close()
	var got []Result
	if _, err := RunCtx(context.Background(), spec, prov, FuncSink(func(r *Result) error {
		got = append(got, *r)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if prov.acquires.Load() == 0 || prov.acquires.Load() != prov.releases.Load() {
		t.Fatalf("provider bookkeeping: %d acquires, %d releases",
			prov.acquires.Load(), prov.releases.Load())
	}
	stripElapsed := func(rs []Result) []Result {
		out := make([]Result, len(rs))
		for i, r := range rs {
			r.Elapsed = 0
			out[i] = r
		}
		return out
	}
	if !reflect.DeepEqual(stripElapsed(want), stripElapsed(got)) {
		t.Fatal("provider-substrate results differ from the standalone substrate")
	}
}

// countingProvider wraps the local provider and counts checkouts.
type countingProvider struct {
	inner              *localProvider
	acquires, releases atomic.Int64
}

func (p *countingProvider) Acquire(ctx context.Context, pt TrialPoint) (*network.Instance, func(), error) {
	inst, release, err := p.inner.Acquire(ctx, pt)
	if err != nil {
		return nil, nil, err
	}
	p.acquires.Add(1)
	return inst, func() { p.releases.Add(1); release() }, nil
}

// transientErr is a test error advertising Transient() true, like the
// serve layer's load sheds do.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// flakyProvider fails its first `failures` Acquire calls with err before
// delegating to the real substrate.
type flakyProvider struct {
	inner    *localProvider
	failures int32
	err      error
	calls    atomic.Int32
}

func (p *flakyProvider) Acquire(ctx context.Context, pt TrialPoint) (*network.Instance, func(), error) {
	if p.calls.Add(1) <= p.failures {
		return nil, nil, p.err
	}
	return p.inner.Acquire(ctx, pt)
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{transientErr{"shed"}, true},
		{fmt.Errorf("sweep: job 3: %w", transientErr{"shed"}), true},
		{errors.New("terminal"), false},
		{context.Canceled, false},
		// A run cancelled by an INJECTED fault is transient (retry gets a
		// clean run); a run cancelled by the client is not.
		{&network.ErrCanceled{Cause: &network.ErrInjected{Kind: network.FaultCancel, Err: context.Canceled}}, true},
		{&network.ErrCanceled{Cause: context.Canceled}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetryTransientAcquire: transient provider failures are absorbed by
// the retry loop — the sweep completes, counts its retries, and produces
// results identical to an unperturbed run.
func TestRetryTransientAcquire(t *testing.T) {
	spec := demoSpec()
	want := collect(t, spec)

	spec.RetryBackoff = time.Microsecond
	prov := &flakyProvider{inner: newLocalProvider(spec, 1), failures: 2, err: transientErr{"overloaded: shed"}}
	defer prov.inner.close()
	var got []Result
	sum, err := RunCtx(context.Background(), spec, prov, FuncSink(func(r *Result) error {
		rr := *r
		rr.Elapsed = 0
		got = append(got, rr)
		return nil
	}))
	if err != nil {
		t.Fatalf("transient failures must be absorbed, got: %v", err)
	}
	if sum.Retries != 2 {
		t.Fatalf("want 2 retries counted, got %d", sum.Retries)
	}
	for i := range want {
		want[i].Elapsed = 0
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("retried sweep's results differ from an unperturbed run")
	}
}

// TestTerminalAcquireNotRetried: a terminal error fails the sweep on the
// first attempt — no retry storm against a broken substrate.
func TestTerminalAcquireNotRetried(t *testing.T) {
	spec := demoSpec()
	spec.Workers = 1
	prov := &flakyProvider{inner: newLocalProvider(spec, 1), failures: 1 << 30, err: errors.New("boom")}
	defer prov.inner.close()
	_, err := RunCtx(context.Background(), spec, prov)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the terminal error to surface, got: %v", err)
	}
	if got := prov.calls.Load(); got != 1 {
		t.Fatalf("terminal errors must not be retried: %d acquire attempts", got)
	}
}

// TestRetriesExhausted: a persistently transient failure gives up after
// MaxRetries attempts and fails the sweep with the underlying error.
func TestRetriesExhausted(t *testing.T) {
	spec := demoSpec()
	spec.Workers = 1
	spec.MaxRetries = 2
	spec.RetryBackoff = time.Microsecond
	prov := &flakyProvider{inner: newLocalProvider(spec, 1), failures: 1 << 30, err: transientErr{"always shed"}}
	defer prov.inner.close()
	_, err := RunCtx(context.Background(), spec, prov)
	if err == nil || !strings.Contains(err.Error(), "always shed") {
		t.Fatalf("want the exhausted transient error to surface, got: %v", err)
	}
	if got := prov.calls.Load(); got != 3 { // 1 initial + MaxRetries
		t.Fatalf("want 3 acquire attempts (1 + 2 retries), got %d", got)
	}
}

// TestRetriesDisabled: MaxRetries < 0 restores fail-fast behavior even
// for transient errors.
func TestRetriesDisabled(t *testing.T) {
	spec := demoSpec()
	spec.Workers = 1
	spec.MaxRetries = -1
	prov := &flakyProvider{inner: newLocalProvider(spec, 1), failures: 1 << 30, err: transientErr{"shed"}}
	defer prov.inner.close()
	_, err := RunCtx(context.Background(), spec, prov)
	if err == nil {
		t.Fatal("want the sweep to fail")
	}
	if got := prov.calls.Load(); got != 1 {
		t.Fatalf("retries disabled: want 1 acquire attempt, got %d", got)
	}
}
