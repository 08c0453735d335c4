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

	"cycledetect/internal/core"
	"cycledetect/internal/corestore"
	"cycledetect/internal/graph"
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

// stripElapsed returns rs with the wall-time field zeroed, the one field
// that differs between runs of the same spec.
func stripElapsed(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		r.Elapsed = 0
		out[i] = r
	}
	return out
}

// testStore is a default-configured store for provider tests, closed when
// the test ends.
func testStore(t *testing.T) *corestore.Store {
	s := corestore.New(corestore.Options{})
	t.Cleanup(s.Close)
	return s
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
		g, err := BuildGraph(job.Graph, job.K, job.Eps, spec.Seed)
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
		// Family graphs are bounded before they are built: 1449 vertices
		// make a complete graph of 1,049,076 edges, just over the limit.
		{"complete over the edge limit", func(s *Spec) { s.Graphs[0] = GraphSpec{Family: "complete", N: 1449} }, "limit of 1048576 edges"},
		{"gnm over the edge limit", func(s *Spec) { s.Graphs[0] = GraphSpec{Family: "gnm", N: 2048, M: MaxFamilyEdges + 1} }, "limit of 1048576 edges"},
		{"tree over the edge limit", func(s *Spec) { s.Graphs[0] = GraphSpec{Family: "tree", N: 1 << 40} }, "limit of 1048576 edges"},
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

	// Graphs at or just under the edge limit still validate.
	for _, gs := range []GraphSpec{
		{Family: "complete", N: 1448},
		{Family: "gnm", N: 2048, M: MaxFamilyEdges},
		{Family: "tree", N: MaxFamilyEdges + 1},
		{Family: "cycle", N: MaxFamilyEdges},
	} {
		if err := gs.Validate(); err != nil {
			t.Errorf("%s: %v", gs, err)
		}
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

	prov := &countingProvider{inner: StoreProvider(testStore(t))}
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
	if !reflect.DeepEqual(stripElapsed(want), stripElapsed(got)) {
		t.Fatal("provider-substrate results differ from the standalone substrate")
	}
}

// countingProvider wraps a provider and counts checkouts.
type countingProvider struct {
	inner              CoreProvider
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
	inner    CoreProvider
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
		// Engine errors are never transient: a run is a pure function of
		// its seed, so a budget violation would recur, and a cancellation
		// is the caller's own.
		{&network.ErrBandwidth{Round: 2, From: 1, To: 2, Bits: 48, BudgetBit: 40}, false},
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

	prov := &flakyProvider{inner: StoreProvider(testStore(t)), failures: 2, err: transientErr{"overloaded: shed"}}
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
	prov := &flakyProvider{inner: StoreProvider(testStore(t)), failures: 1 << 30, err: errors.New("boom")}
	_, err := RunCtx(context.Background(), spec, prov)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the terminal error to surface, got: %v", err)
	}
	if got := prov.calls.Load(); got != 1 {
		t.Fatalf("terminal errors must not be retried: %d acquire attempts", got)
	}
}

// TestRetriesExhausted: a persistently transient failure gives up after
// maxRetries retries and fails the sweep with the underlying error.
func TestRetriesExhausted(t *testing.T) {
	spec := demoSpec()
	spec.Workers = 1
	prov := &flakyProvider{inner: StoreProvider(testStore(t)), failures: 1 << 30, err: transientErr{"always shed"}}
	_, err := RunCtx(context.Background(), spec, prov)
	if err == nil || !strings.Contains(err.Error(), "always shed") {
		t.Fatalf("want the exhausted transient error to surface, got: %v", err)
	}
	if got := prov.calls.Load(); got != 1+maxRetries {
		t.Fatalf("want %d acquire attempts (1 + %d retries), got %d", 1+maxRetries, maxRetries, got)
	}
}

// TestSweepProviderSharesCache: StoreProvider caches a trial point under
// its FamilyKey, so a trial checkout lands in the same cache entry as a
// Checkout under that key.
func TestSweepProviderSharesCache(t *testing.T) {
	s := testStore(t)
	pt := TrialPoint{
		Graph: GraphSpec{Family: "cycle", N: 20},
		K:     5,
		Seed:  3,
	}
	inst, release, err := StoreProvider(s).Acquire(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if inst == nil {
		t.Fatal("nil instance")
	}
	release()

	key := FamilyKey(pt.Graph, pt.K, pt.Eps, pt.Seed)
	h, hit, err := s.Checkout(context.Background(), key, func() (*graph.Graph, error) {
		t.Fatal("hit must not rebuild")
		return nil, nil
	}, network.EngineBSP, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(h)
	if !hit {
		t.Fatal("query checkout after sweep acquire missed: the two paths use different keys")
	}
}

// TestStandaloneBandwidthBudget: a standalone sweep compiles its private
// cores with the spec's per-message budget. A budget every message breaks
// fails the sweep with *network.ErrBandwidth, which is terminal and so not
// retried; a budget no message reaches leaves every row as it is without
// one.
func TestStandaloneBandwidthBudget(t *testing.T) {
	tight := demoSpec()
	tight.Workers = 1
	tight.BandwidthBits = 8
	var prog Progress
	_, err := RunCtxProgress(context.Background(), tight, nil, &prog)
	var bw *network.ErrBandwidth
	if !errors.As(err, &bw) {
		t.Fatalf("want *network.ErrBandwidth, got %v", err)
	}
	if r := prog.Retries.Load(); r != 0 {
		t.Fatalf("a bandwidth violation is terminal, but it was retried %d times", r)
	}

	wide := demoSpec()
	wide.BandwidthBits = 1 << 20
	if got, want := collect(t, wide), collect(t, demoSpec()); !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
		t.Fatal("a budget no message reaches changed the rows")
	}
}
