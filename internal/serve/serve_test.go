package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cycledetect/internal/congest"
	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/sweep"
)

// freshDecision runs the same query as a one-shot congest run and
// summarizes it — the ground truth a served query must reproduce exactly.
func freshDecision(t *testing.T, g *graph.Graph, engine congest.Engine, k, reps int, eps float64, seed uint64) core.Decision {
	t.Helper()
	res, err := congest.RunWith(engine, g, &core.Tester{K: k, Eps: eps, Reps: reps}, congest.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return core.Summarize(res.Outputs, res.IDs)
}

func TestQueryMatchesFreshRun(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	// The family form must build the identical graph the sweep layer
	// builds for the same spec and seed.
	gs := sweep.GraphSpec{Family: "gnm", N: 64, M: 256}
	g, err := sweep.BuildGraph(gs, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []congest.Engine{congest.EngineBSP, congest.EngineChannels} {
		for seed := uint64(1); seed <= 4; seed++ {
			resp, err := s.Query(context.Background(), &QueryRequest{
				Graph: GraphRequest{Family: "gnm", N: 64, M: 256, Seed: 3},
				K:     5, Eps: 0.1, Seed: seed,
				Engine: string(engine),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := freshDecision(t, g, engine, 5, 0, 0.1, seed)
			if resp.Rejected != want.Reject ||
				!reflect.DeepEqual(resp.RejectingIDs, want.RejectingIDs) ||
				!reflect.DeepEqual(resp.Witness, want.Witness) ||
				resp.MaxSeqs != want.MaxSeqs {
				t.Fatalf("engine %s seed %d: served verdict differs from fresh run:\n got  %+v\n want %+v",
					engine, seed, resp, want)
			}
			if resp.N != g.N() || resp.M != g.M() {
				t.Fatalf("graph dims: got n=%d m=%d, want n=%d m=%d", resp.N, resp.M, g.N(), g.M())
			}
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != st.Queries-1 {
		t.Fatalf("one compile should serve all queries: %+v", st)
	}
}

// TestConcurrentQueriesDeterministic is the serving-layer version of the
// network concurrency contract: many clients, one cached graph, distinct
// seeds — every response identical to a sequential fresh run.
func TestConcurrentQueriesDeterministic(t *testing.T) {
	s := NewServer(Options{MaxInstances: 4})
	defer s.Close()
	g, err := sweep.BuildGraph(sweep.GraphSpec{Family: "gnm", N: 48, M: 192}, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 24
	want := make([]core.Decision, seeds)
	for i := range want {
		want[i] = freshDecision(t, g, congest.EngineBSP, 5, 2, 0, uint64(i))
	}
	var wg sync.WaitGroup
	for i := 0; i < seeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Query(context.Background(), &QueryRequest{
				Graph: GraphRequest{Family: "gnm", N: 48, M: 192, Seed: 9},
				K:     5, Reps: 2, Seed: uint64(i),
			})
			if err != nil {
				t.Errorf("seed %d: %v", i, err)
				return
			}
			if resp.Rejected != want[i].Reject ||
				!reflect.DeepEqual(resp.RejectingIDs, want[i].RejectingIDs) ||
				!reflect.DeepEqual(resp.Witness, want[i].Witness) {
				t.Errorf("seed %d: concurrent served verdict differs from sequential fresh run", i)
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.InstancesLive > 4 {
		t.Fatalf("instance pool exceeded its cap: %+v", st)
	}
}

func TestDetectQuery(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	// C6 with a pendant edge, explicit form; the detector must certify the
	// cycle through {0,1}.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {2, 6}}
	resp, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{N: 7, Edges: edges},
		Op:    OpDetect, K: 6, Edge: &[2]int64{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Rejected || len(resp.Witness) != 6 {
		t.Fatalf("detector missed the C6: %+v", resp)
	}
	if resp.Rounds != 3 { // exactly ⌊k/2⌋
		t.Fatalf("detector rounds: got %d, want 3", resp.Rounds)
	}

	// The same edge set in a different order must hit the same cache entry
	// (canonical fingerprint keying).
	perm := [][2]int{{2, 6}, {5, 0}, {4, 5}, {3, 4}, {1, 2}, {2, 3}, {1, 0}}
	if _, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{N: 7, Edges: perm},
		Op:    OpDetect, K: 6, Edge: &[2]int64{0, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("fingerprint keying should dedupe permuted edge lists: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewServer(Options{MaxGraphs: 2})
	defer s.Close()
	query := func(n int) {
		t.Helper()
		if _, err := s.Query(context.Background(), &QueryRequest{
			Graph: GraphRequest{Family: "cycle", N: n},
			K:     5, Reps: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	query(10)
	query(11)
	query(12) // evicts cycle(10)
	st := s.Stats()
	if st.GraphsCached != 2 || st.Evictions != 1 {
		t.Fatalf("LRU bookkeeping: %+v", st)
	}
	query(10) // re-miss
	if st := s.Stats(); st.Misses != 4 {
		t.Fatalf("evicted graph should re-compile: %+v", st)
	}
}

// TestEvictionWakesWaitersAndQueriesSurvive drives the cache-churn race:
// queries on a graph whose entry gets LRU-evicted mid-flight (including
// waiters blocked on the instance pool) must still succeed by retrying
// against the re-compiled entry — not sleep out their deadline against the
// dead pool — and no instance may leak into an evicted pool (Close catches
// a leak as a spawned-count mismatch; -race catches the rest).
func TestEvictionWakesWaitersAndQueriesSurvive(t *testing.T) {
	s := NewServer(Options{MaxGraphs: 1, MaxInstances: 1})
	defer s.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				// Two distinct graphs fighting over one cache slot: every
				// miss evicts the other graph, while its queries are in
				// flight or waiting on its (capacity-1) pool.
				n := 10 + c%2
				if _, err := s.Query(context.Background(), &QueryRequest{
					Graph: GraphRequest{Family: "cycle", N: n},
					K:     5, Reps: 2, Seed: uint64(i),
				}); err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Failures != 0 || st.Timeouts != 0 {
		t.Fatalf("churned queries should all succeed: %+v", st)
	}
	if st.GraphsCached != 1 {
		t.Fatalf("cache must hold exactly MaxGraphs entries: %+v", st)
	}
}

// TestQueryTimeout pins the abandoned-run semantics end to end: a 504'd
// query's run is CANCELLED at its next round barrier — not left to burn the
// remaining rounds — so its instance re-pools within rounds of the deadline
// and immediately serves the next query. The workload would run for tens of
// seconds if executed to completion; the 3-second release bound below can
// only be met by the cancellation path.
func TestQueryTimeout(t *testing.T) {
	s := NewServer(Options{QueryTimeout: 50 * time.Millisecond, MaxInstances: 1})
	defer s.Close()
	_, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 128, M: 512, Seed: 1},
		K:     7, Reps: 60000, Seed: 1, // hundreds of thousands of rounds: tens of seconds if not aborted
	})
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeout not counted: %+v", st)
	}
	released := time.Now()
	deadline := released.Add(3 * time.Second)
	for {
		if st := s.Stats(); st.InstancesIdle == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned instance not released within the cancellation window (run completion is tens of seconds away): %+v", s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The freed instance (the only one in the budget) serves the next
	// query; a leaked slot would park this one until ITS deadline.
	if _, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 128, M: 512, Seed: 1},
		K:     7, Reps: 2, Seed: 2,
	}); err != nil {
		t.Fatalf("query after the cancelled run: %v", err)
	}
}

// TestSweepRunsOnQueryCache is the topology-sharing contract between the
// two traffic classes: a /sweep over a graph the query traffic already
// compiled performs ZERO compiles — its trials check instances out of the
// same cached core — its lookups count as cache hits in /stats, and its
// rows are byte-identical to the standalone sweep substrate.
func TestSweepRunsOnQueryCache(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	if _, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 48, M: 192, Seed: 11},
		K:     5, Reps: 2, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()
	if st0.Compiles != 1 {
		t.Fatalf("warm-up should compile exactly once: %+v", st0)
	}

	spec := &sweep.Spec{
		Graphs: []sweep.GraphSpec{{Family: "gnm", N: 48, M: 192}},
		K:      []int{5, 7}, Eps: []float64{0.2}, Trials: 3, Seed: 11,
	}
	var got []sweep.Result
	sum, err := s.RunSweep(context.Background(), spec, sweep.FuncSink(func(r *sweep.Result) error {
		got = append(got, *r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 2 || len(got) != 2 {
		t.Fatalf("sweep shape: %+v, %d rows", sum, len(got))
	}

	st := s.Stats()
	if st.Compiles != st0.Compiles {
		t.Fatalf("sweep on a cached graph must perform zero compiles: before %+v, after %+v", st0, st)
	}
	if st.Misses != st0.Misses || st.Hits <= st0.Hits {
		t.Fatalf("sweep lookups must hit the query-warmed entry: before %+v, after %+v", st0, st)
	}

	// Determinism across substrates: the standalone scheduler (its own
	// cores) must produce identical rows for the identical spec.
	standalone := &sweep.Spec{
		Graphs: []sweep.GraphSpec{{Family: "gnm", N: 48, M: 192}},
		K:      []int{5, 7}, Eps: []float64{0.2}, Trials: 3, Seed: 11,
	}
	var want []sweep.Result
	if _, err := sweep.Run(standalone, sweep.FuncSink(func(r *sweep.Result) error {
		want = append(want, *r)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].Elapsed, got[i].Elapsed = 0, 0
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("row %d differs between substrates:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestSweepCancelStopsServerTrials: killing a served sweep's context stops
// its trials (the stream's rows cease) and does not poison the server —
// the instances released by the dying sweep serve later queries.
func TestSweepCancelStopsServerTrials(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := &sweep.Spec{
		Graphs: []sweep.GraphSpec{{Family: "gnm", N: 64, M: 256}},
		K:      []int{5, 6, 7}, Eps: []float64{0.25, 0.1, 0.05},
		Trials: 500, Seed: 3, Workers: 1,
	}
	rows := 0
	_, err := s.RunSweep(ctx, spec, sweep.FuncSink(func(r *sweep.Result) error {
		rows++
		cancel()
		return nil
	}))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep: got %v", err)
	}
	if rows >= 9 {
		t.Fatalf("sweep ran its whole grid (%d rows) despite cancellation", rows)
	}
	if st := s.Stats(); st.Failures != 0 {
		t.Fatalf("a client-cancelled sweep is not a server failure: %+v", st)
	}
	if _, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 64, M: 256, Seed: 3},
		K:     5, Reps: 2, Seed: 1,
	}); err != nil {
		t.Fatalf("query after a cancelled sweep: %v", err)
	}
}

// TestByteWeightedEviction: eviction is driven by summed compiled size
// (Compiled.MemSize), and the most recently used entry always survives,
// even alone over budget.
func TestByteWeightedEviction(t *testing.T) {
	q := func(t *testing.T, s *Server, n, m int) {
		t.Helper()
		if _, err := s.Query(context.Background(), &QueryRequest{
			Graph: GraphRequest{Family: "gnm", N: n, M: m, Seed: 5},
			K:     5, Reps: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("two-do-not-fit", func(t *testing.T) {
		// Budget sized to hold one 64-node core (~12 KiB) but not two.
		s := NewServer(Options{MaxCacheBytes: 20 << 10})
		defer s.Close()
		q(t, s, 64, 256)
		q(t, s, 64, 192) // over budget together: evicts the first
		st := s.Stats()
		if st.Evictions != 1 || st.GraphsCached != 1 {
			t.Fatalf("byte-weighted eviction: %+v", st)
		}
		if st.CacheBytes > st.MaxCacheBytes || st.CacheBytes == 0 {
			t.Fatalf("cache bytes out of budget: %+v", st)
		}
		q(t, s, 64, 256) // the evicted graph re-compiles
		if st := s.Stats(); st.Compiles != 3 {
			t.Fatalf("evicted graph should re-compile: %+v", st)
		}
	})
	t.Run("mru-survives-over-budget", func(t *testing.T) {
		s := NewServer(Options{MaxCacheBytes: 1})
		defer s.Close()
		q(t, s, 64, 256)
		q(t, s, 64, 192)
		st := s.Stats()
		if st.GraphsCached != 1 || st.Evictions != 1 {
			t.Fatalf("an over-budget MRU entry must still serve: %+v", st)
		}
	})
}

// TestInstanceBudgetDegradesAcrossGraphs: with a server-wide budget of 2
// instances, queries across many distinct graphs keep succeeding — cold
// graphs' idle instances are reclaimed for hot ones — and the live count
// never exceeds the budget.
func TestInstanceBudgetDegradesAcrossGraphs(t *testing.T) {
	s := NewServer(Options{MaxInstances: 2})
	defer s.Close()
	for i := 0; i < 12; i++ {
		n := 10 + i%6 // six distinct graphs round-robin
		if _, err := s.Query(context.Background(), &QueryRequest{
			Graph: GraphRequest{Family: "cycle", N: n},
			K:     5, Reps: 1, Seed: uint64(i),
		}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if st := s.Stats(); st.InstancesLive > 2 {
			t.Fatalf("query %d blew the server-wide instance budget: %+v", i, st)
		}
	}
	if st := s.Stats(); st.Failures != 0 || st.Timeouts != 0 {
		t.Fatalf("degraded-mode queries must all succeed: %+v", st)
	}
}

func TestQueryValidation(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	bad := []QueryRequest{
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 2, Eps: 0.1},                    // k too small
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4},                              // no eps, no reps
		{Graph: GraphRequest{Family: "nope", N: 16}, K: 4, Eps: 0.1},                   // unknown family
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Op: "zap"},         // unknown op
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Op: OpDetect},      // detect without edge
		{Graph: GraphRequest{N: 4, Edges: [][2]int{{0, 1}, {2, 3}}}, K: 4, Eps: 0.1},   // disconnected
		{Graph: GraphRequest{N: 50_000_000, Edges: [][2]int{{0, 1}}}, K: 4, Eps: 0.1},  // too few edges to connect n
		{Graph: GraphRequest{}, K: 4, Eps: 0.1},                                        // no graph at all
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Engine: "quantum"}, // unknown engine
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Op: OpDetect,
			Edge: &[2]int64{5, 5}}, // detect with equal endpoints (matches DetectThroughEdge)
	}
	for i, req := range bad {
		if _, err := s.Query(context.Background(), &req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}

	// Every edge must be exactly two integers in int's range, refused with a
	// 400 otherwise. Plain [2]int decoding would turn [5] into {5,0} and
	// [1,2,3] into {1,2}, and each of those completes the path below into a
	// connected graph, so a rewrite would be answered as a valid query.
	h := s.Handler()
	const path = `[0,1],[2,3],[3,4],[4,5]`
	for _, tc := range []struct {
		last string
		code int
	}{
		{`[1,2]`, http.StatusOK}, // control: the well-formed graph is served
		{`[5]`, http.StatusBadRequest},
		{`[1,2,3]`, http.StatusBadRequest},
		{`[]`, http.StatusBadRequest},
		{`[1.5,2]`, http.StatusBadRequest},
		{`["1",2]`, http.StatusBadRequest},
		{`[1,9223372036854775808]`, http.StatusBadRequest}, // overflows int
	} {
		body := `{"graph":{"n":6,"edges":[` + path + `,` + tc.last + `]},"k":3,"reps":1}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != tc.code {
			t.Errorf("edge %s: HTTP %d, want %d (%s)", tc.last, rec.Code, tc.code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestShortEdgeListRefusedBeforeSizing: an explicit graph with fewer than
// n-1 edges cannot be connected, so it is refused before anything is sized
// by n. Building it first would cost ~13 bytes per vertex, ~52 MB at
// n = 2^22.
func TestShortEdgeListRefusedBeforeSizing(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	req := QueryRequest{Graph: GraphRequest{N: 1 << 22, Edges: [][2]int{{0, 1}}}, K: 4, Eps: 0.1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.Query(context.Background(), &req)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errNotConnected) {
		t.Fatalf("err = %v, want the not-connected refusal", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing n=2^22 allocated %d bytes, want under 1 MB", got)
	}
}

// --- HTTP surface ---

func TestHTTPQueryAndStats(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"graph":{"family":"gnm","n":64,"m":256,"seed":3},"k":5,"eps":0.1,"seed":2}`
	var first QueryResponse
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wantCache := "miss"
		if i == 1 {
			wantCache = "hit"
			if qr.Rejected != first.Rejected || !reflect.DeepEqual(qr.Witness, first.Witness) {
				t.Fatalf("identical query gave a different verdict on the cache hit")
			}
		}
		if qr.Cache != wantCache {
			t.Fatalf("query %d: cache=%q, want %q", i, qr.Cache, wantCache)
		}
		first = qr
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats over HTTP: %+v", st)
	}
	// The per-entry breakdown: one cached graph with its compiled size,
	// hit count, and age, consistent with the byte-weighted totals.
	if len(st.Entries) != 1 {
		t.Fatalf("want one cache entry in /stats, got %+v", st.Entries)
	}
	e := st.Entries[0]
	if e.N != 64 || e.M != 256 || e.Bytes <= 0 || e.Hits != 1 || e.AgeSeconds < 0 {
		t.Fatalf("per-entry stats: %+v", e)
	}
	if st.CacheBytes != e.Bytes || st.MaxCacheBytes <= 0 || st.InstanceBudget < 1 {
		t.Fatalf("byte-weighted totals and budget occupancy: %+v", st)
	}

	// Malformed and unknown-field payloads are 400s, not 500s.
	for _, bad := range []string{`{`, `{"bogus_field":1}`} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestHTTPSweepStreams(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"graphs":[{"family":"cycle","n":12}],"k":[5,7],"eps":[0.2],"trials":3,"seed":1}`

	t.Run("jsonl", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 3 { // 2 rows + summary
			t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
		}
		var row sweep.Result
		if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
			t.Fatal(err)
		}
		if row.K != 5 || row.Trials != 3 {
			t.Fatalf("first row: %+v", row)
		}
		if !strings.Contains(lines[2], `"event":"summary"`) {
			t.Fatalf("missing summary tail: %s", lines[2])
		}
	})

	t.Run("sse", func(t *testing.T) {
		req, _ := http.NewRequest("POST", ts.URL+"/sweep", strings.NewReader(spec))
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q", ct)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		out := buf.String()
		if n := strings.Count(out, "event: row\n"); n != 2 {
			t.Fatalf("got %d row events, want 2:\n%s", n, out)
		}
		if !strings.Contains(out, "event: summary\n") {
			t.Fatalf("missing summary event:\n%s", out)
		}
	})

	t.Run("invalid-spec", func(t *testing.T) {
		for _, tc := range []struct {
			name, spec string
			want       string // a substring the error body must carry
		}{
			{"no-graphs", `{"graphs":[],"k":[5],"eps":[0.2],"trials":1}`, "no graphs"},
			// Batched trial execution was removed; a spec that still asks
			// for it is refused by name instead of quietly running unbatched.
			{"batch-width", `{"graphs":[{"family":"cycle","n":12}],"k":[5],"eps":[0.2],"trials":2,"seed":1,"batch_width":4}`, "batch_width"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(tc.spec))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("HTTP %d, want 400 (%s)", resp.StatusCode, strings.TrimSpace(buf.String()))
				}
				if !strings.Contains(buf.String(), tc.want) {
					t.Fatalf("error body %q does not name %q", strings.TrimSpace(buf.String()), tc.want)
				}
			})
		}
	})
}

func TestServerClosed(t *testing.T) {
	s := NewServer(Options{})
	s.Close()
	if _, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "cycle", N: 9}, K: 5, Reps: 1,
	}); err == nil {
		t.Fatal("closed server accepted a query")
	}
}

// TestWarningsSurfaceOnBigK pins the combin q-cap advisory end to end: a
// sweep spec with k past the calibrated range validates but warns.
func TestWarningsSurfaceOnBigK(t *testing.T) {
	spec := sweep.Spec{
		Graphs: []sweep.GraphSpec{{Family: "cycle", N: 16}},
		K:      []int{5, 11},
		Eps:    []float64{0.2},
		Trials: 1,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ws := spec.Warnings()
	if len(ws) != 1 || !strings.Contains(ws[0], "k=11") {
		t.Fatalf("warnings: %v", ws)
	}
}
