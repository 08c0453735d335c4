package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
		{"tiny n", func(s *Spec) { s.Graphs[0].N = 1 }, "far/n=1/seed=7/k=3/eps=0.25 is below the family's least arguments [3 0]"},
		{"no k", func(s *Spec) { s.K = nil }, "no k values"},
		{"k too small", func(s *Spec) { s.K = []int{2} }, "k must be in [3, 9], got 2"},
		// Past the calibrated range the representative selection is
		// exponential and polls no deadline: refused, as /query refuses it.
		{"k past the calibrated range", func(s *Spec) { s.K = []int{5, 11} }, "k must be in [3, 9], got 11"},
		{"negative reps", func(s *Spec) { s.Reps = -1 }, "negative reps -1"},
		{"no eps", func(s *Spec) { s.Eps = nil }, "no eps"},
		{"eps range", func(s *Spec) { s.Eps = []float64{1.5} }, "outside (0,1)"},
		{"bad engine", func(s *Spec) { s.Engines = []string{"quantum"} }, "unknown engine"},
		{"channels engine", func(s *Spec) { s.Engines = []string{"bsp", "channels"} }, `unknown engine "channels"`},
		{"no trials", func(s *Spec) { s.Trials = 0 }, "trials must be positive"},
		// Family graphs are bounded before they are built: 1449 vertices
		// make a complete graph of 1,049,076 edges, just over the limit.
		{"complete over the edge limit", func(s *Spec) { s.Graphs[0] = GraphSpec{Family: "complete", N: 1449} }, "limit of 1048576 edges"},
		{"gnm over the edge limit", func(s *Spec) { s.Graphs[0] = GraphSpec{Family: "gnm", N: 2048, M: graph.MaxFamilyEdges + 1} }, "limit of 1048576 edges"},
		{"tree over the edge limit", func(s *Spec) { s.Graphs[0] = GraphSpec{Family: "tree", N: 1 << 40} }, "limit of 1048576 edges"},
		// A gnm the generator cannot build is refused before the first job,
		// not at the job that would build it.
		{"gnm with more edges than K_n", func(s *Spec) { s.Graphs[1] = GraphSpec{Family: "gnm", N: 10, M: 100} }, "n-1 <= m <= n(n-1)/2 = 45"},
		{"gnm too sparse to connect", func(s *Spec) { s.Graphs[1] = GraphSpec{Family: "gnm", N: 100, M: 5} }, "n-1 <= m <= n(n-1)/2"},
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
		{Family: "gnm", N: 2048, M: graph.MaxFamilyEdges},
		{Family: "tree", N: graph.MaxFamilyEdges + 1},
		{Family: "cycle", N: graph.MaxFamilyEdges},
	} {
		if _, err := graph.FamilySpec(gs.Family, gs.N, gs.M, 5, 0.1, 1); err != nil {
			t.Errorf("%+v: %v", gs, err)
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
// that is actually built, by its catalog key, instead of "m=0".
func TestGraphSpecStringResolvesDefaultM(t *testing.T) {
	cases := map[string]GraphSpec{
		"gnm/n=128/m=512/seed=1":       {Family: "gnm", N: 128},
		"gnm/n=128/m=300/seed=1":       {Family: "gnm", N: 128, M: 300},
		"tree/n=9/seed=1":              {Family: "tree", N: 9, M: 40},
		"far/n=90/seed=1/k=5/eps=0.05": {Family: "far", N: 90},
	}
	for want, gs := range cases {
		if got := FamilyKey(gs, 5, 0.05, 1); got != want {
			t.Errorf("%+v: key %q, want %q", gs, got, want)
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

// runCounter counts completed and context-cancelled runs across every
// instance of a store.
type runCounter struct{ done, canceled atomic.Int64 }

func (c *runCounter) RecordRun(m network.RunMetrics) {
	switch {
	case m.Canceled:
		c.canceled.Add(1)
	case !m.Failed:
		c.done.Add(1)
	}
}

// TestRunCtxSinkErrorStopsInFlightJob: a sink error is a failure like any
// other, so it cancels the trials in flight on other workers within one
// round instead of waiting out their jobs. Two workers take a fast job (a
// 16-cycle, well under a millisecond per trial) and a slow one
// (G(256,1024), tens of milliseconds per trial); the sink fails on the fast
// job's row, while the slow job still has nearly all its trials to run.
func TestRunCtxSinkErrorStopsInFlightJob(t *testing.T) {
	spec := &Spec{
		Graphs:  []GraphSpec{{Family: "cycle", N: 16}, {Family: "gnm", N: 256, M: 1024}},
		K:       []int{7},
		Eps:     []float64{0.1},
		Trials:  60,
		Seed:    7,
		Workers: 2,
	}
	runs := &runCounter{}
	s := corestore.New(corestore.Options{MaxInstances: 2, Collector: runs})
	t.Cleanup(s.Close)
	sinkErr := errors.New("sink full")
	start := time.Now()
	_, err := RunCtx(context.Background(), spec, s, FuncSink(func(*Result) error { return sinkErr }))
	elapsed := time.Since(start)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("want the sink's error, got %v", err)
	}
	// The fast job's trials all ran before its row reached the sink. A
	// sweep that waits out the slow job runs its 60 trials as well.
	if done := runs.done.Load(); done >= int64(spec.Trials+spec.Trials/2) {
		t.Fatalf("%d trials completed (%d cancelled) in %v: the in-flight job ran on after the sink failed",
			done, runs.canceled.Load(), elapsed)
	}
	t.Logf("%d trials completed, %d cancelled, in %v", runs.done.Load(), runs.canceled.Load(), elapsed)
}

// TestRunCtxCustomProvider: a sweep on a caller's store gives Run's rows,
// returns every instance it checked out, and compiles each distinct graph
// once over three passes. Four workers start on four jobs of one cold
// 2048-vertex graph, whose build and compile take milliseconds, so a store
// whose build is not single-flight compiles it more than once; only two
// instances of budget make the workers also wait on the store's budget.
func TestRunCtxCustomProvider(t *testing.T) {
	spec := &Spec{
		Graphs: []GraphSpec{{Family: "gnm", N: 2048, M: 8192}, {Family: "tree", N: 2048}},
		K:      []int{3, 4, 5, 6},
		Eps:    []float64{0.1},
		Reps:   1,
		Trials: 1,
		Seed:   7,
	}
	want := collect(t, spec)
	spec.Workers = 4

	s := corestore.New(corestore.Options{MaxInstances: 2})
	t.Cleanup(s.Close)
	keys := map[string]bool{}
	jobs, _ := spec.Jobs()
	for _, j := range jobs {
		keys[FamilyKey(j.Graph, j.K, j.Eps, spec.Seed)] = true
	}
	for pass := 0; pass < 3; pass++ {
		var got []Result
		if _, err := RunCtx(context.Background(), spec, s, FuncSink(func(r *Result) error {
			got = append(got, *r)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripElapsed(want), stripElapsed(got)) {
			t.Fatalf("pass %d: rows on a given store differ from Run's", pass)
		}
		if st := s.Stats(); st.InstancesIdle != st.InstancesLive {
			t.Fatalf("pass %d: %d of %d live instances idle after the sweep", pass, st.InstancesIdle, st.InstancesLive)
		}
	}
	if got := s.Stats().Compiles; got != int64(len(keys)) {
		t.Fatalf("3 passes compiled %d cores, want one per distinct FamilyKey (%d)", got, len(keys))
	}
}

// TestRunCtxStoreRefusesBandwidth: a given store's cores carry the store's
// own per-message budget, so a spec that names one is refused before
// anything compiles.
func TestRunCtxStoreRefusesBandwidth(t *testing.T) {
	s := corestore.New(corestore.Options{})
	t.Cleanup(s.Close)
	spec := demoSpec()
	spec.BandwidthBits = 4096
	if _, err := RunCtx(context.Background(), spec, s); err == nil || !strings.Contains(err.Error(), "bandwidth_bits") {
		t.Fatalf("want a refusal naming bandwidth_bits, got %v", err)
	}
	if c := s.Stats().Compiles; c != 0 {
		t.Fatalf("the refused sweep compiled %d cores", c)
	}
}

// TestStandaloneBandwidthBudget: a standalone sweep compiles its private
// cores with the spec's per-message budget. A budget every message breaks
// fails the sweep with *network.ErrBandwidth; a budget no message reaches
// leaves every row as it is without one.
func TestStandaloneBandwidthBudget(t *testing.T) {
	tight := demoSpec()
	tight.Workers = 1
	tight.BandwidthBits = 8
	_, err := Run(tight)
	var bw *network.ErrBandwidth
	if !errors.As(err, &bw) {
		t.Fatalf("want *network.ErrBandwidth, got %v", err)
	}

	wide := demoSpec()
	wide.BandwidthBits = 1 << 20
	if got, want := collect(t, wide), collect(t, demoSpec()); !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
		t.Fatal("a budget no message reaches changed the rows")
	}
}
