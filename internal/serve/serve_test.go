package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// freshDecision runs the same query on a fresh single-use network and
// summarizes it — the ground truth a served query must reproduce exactly.
func freshDecision(t *testing.T, g *graph.Graph, k, reps int, eps float64, seed uint64) core.Decision {
	t.Helper()
	nw, err := network.New(g, network.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.RunProgram(&core.Tester{K: k, Eps: eps, Reps: reps}, seed)
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
	for seed := uint64(1); seed <= 4; seed++ {
		resp, err := s.Query(context.Background(), &QueryRequest{
			Graph: GraphRequest{Family: "gnm", N: 64, M: 256, Seed: 3},
			K:     5, Eps: 0.1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := freshDecision(t, g, 5, 0, 0.1, seed)
		if resp.Rejected != want.Reject ||
			!reflect.DeepEqual(resp.RejectingIDs, want.RejectingIDs) ||
			!reflect.DeepEqual(resp.Witness, want.Witness) ||
			resp.MaxSeqs != want.MaxSeqs {
			t.Fatalf("seed %d: served verdict differs from fresh run:\n got  %+v\n want %+v",
				seed, resp, want)
		}
		if resp.N != g.N() || resp.M != g.M() {
			t.Fatalf("graph dims: got n=%d m=%d, want n=%d m=%d", resp.N, resp.M, g.N(), g.M())
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
		want[i] = freshDecision(t, g, 5, 2, 0, uint64(i))
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

// TestFamilyQueryIgnoresUnreadFields: a family request that differs from a
// cached one only in a field the generator never reads (m for a tree, the
// seed for a cycle) names the same graph, so it must hit the cached core
// instead of compiling and caching a copy.
func TestFamilyQueryIgnoresUnreadFields(t *testing.T) {
	pairs := map[string][2]GraphRequest{
		"tree m":     {{Family: "tree", N: 64, Seed: 1}, {Family: "tree", N: 64, M: 5, Seed: 1}},
		"cycle seed": {{Family: "cycle", N: 64, Seed: 1}, {Family: "cycle", N: 64, Seed: 2}},
	}
	for name, pair := range pairs {
		s := NewServer(Options{})
		for _, gr := range pair {
			if _, err := s.Query(context.Background(), &QueryRequest{Graph: gr, K: 5, Reps: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.Hits != 1 || st.Compiles != 1 || st.GraphsCached != 1 {
			t.Errorf("%s: second request should hit the first one's core: %+v", name, st)
		}
		s.Close()
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
	begin := time.Now()
	_, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 128, M: 512, Seed: 1},
		K:     7, Reps: 60000, Seed: 1, // hundreds of thousands of rounds: tens of seconds if not aborted
	})
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	// The run answers when it next polls its context, at a round barrier; a
	// round here takes about a tenth of a millisecond.
	if late := time.Since(begin) - 50*time.Millisecond; late > time.Second {
		t.Fatalf("the 504 came %v after its deadline", late)
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
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 2, Eps: 0.1},                     // k too small
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4},                               // no eps, no reps
		{Graph: GraphRequest{Family: "nope", N: 16}, K: 4, Eps: 0.1},                    // unknown family
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Op: "zap"},          // unknown op
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Op: OpDetect},       // detect without edge
		{Graph: GraphRequest{N: 4, Edges: [][2]int{{0, 1}, {2, 3}}}, K: 4, Eps: 0.1},    // disconnected
		{Graph: GraphRequest{N: 50_000_000, Edges: [][2]int{{0, 1}}}, K: 4, Eps: 0.1},   // too few edges to connect n
		{Graph: GraphRequest{}, K: 4, Eps: 0.1},                                         // no graph at all
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Engine: "quantum"},  // unknown engine
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Engine: "channels"}, // no such engine
		{Graph: GraphRequest{Family: "gnm", N: 16}, K: 4, Eps: 0.1, Op: OpDetect,
			Edge: &[2]int64{5, 5}}, // detect with equal endpoints (matches DetectThroughEdge)
		// Family graphs over sweep.MaxFamilyEdges, refused before they are built.
		{Graph: GraphRequest{Family: "complete", N: 1449}, K: 3, Reps: 1},                         // 1,049,076 edges
		{Graph: GraphRequest{Family: "gnm", N: 2048, M: sweep.MaxFamilyEdges + 1}, K: 3, Reps: 1}, // one edge over
		{Graph: GraphRequest{Family: "tree", N: 1 << 40}, K: 3, Reps: 1},                          // n-1 edges
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

	// The engine field still decodes: "bsp" is served, any other name is a
	// 400.
	for engine, code := range map[string]int{"bsp": http.StatusOK, "channels": http.StatusBadRequest} {
		body := `{"graph":{"family":"cycle","n":8},"k":3,"reps":1,"engine":"` + engine + `"}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != code {
			t.Errorf("engine %q: HTTP %d, want %d (%s)", engine, rec.Code, code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestQueryTrailingBytesRefused: a /query body is one JSON value and
// whitespace. Garbage or a second object after the value is a 400, not a
// query answered as the first value alone.
func TestQueryTrailingBytesRefused(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	const query = `{"graph":{"family":"cycle","n":12},"k":3,"reps":1}`
	for _, tc := range []struct {
		body string
		code int
	}{
		{query, http.StatusOK},
		{" " + query + " \t\r\n", http.StatusOK},
		{query + "garbage", http.StatusBadRequest},
		{query + `{"k":99}`, http.StatusBadRequest},
		{query + " ,", http.StatusBadRequest},
		{query + "\x00", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Errorf("%q: HTTP %d, want %d (%s)", tc.body, rec.Code, tc.code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestQueryNaiveFieldRefused: both ops run pruned forwarding only, so a
// body that still asks for the §3.2 strawman with "naive" is a 400, like
// any other unknown field, and the same body without it is served.
func TestQueryNaiveFieldRefused(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"graph":{"family":"cycle","n":8},"k":4,"reps":1}`, http.StatusOK},
		{`{"graph":{"family":"cycle","n":8},"k":4,"reps":1,"naive":true}`, http.StatusBadRequest},
		{`{"graph":{"family":"cycle","n":8},"k":4,"reps":1,"naive":false}`, http.StatusBadRequest},
		{`{"graph":{"family":"cycle","n":8},"op":"detect","edge":[0,1],"k":4,"naive":true}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.body, rec.Code, tc.code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestQueryKBound: /query serves k up to combin.MaxCalibratedK (9). Past
// it the representative selection is exponential in q = k−t and checks no
// deadline, so a larger k is a 400, refused by validate before admission:
// at a full gate it is answered at once, neither shed nor left to wait.
func TestQueryKBound(t *testing.T) {
	s := NewServer(Options{MaxConcurrentQueries: 1, MaxQueueDepth: 4})
	defer s.Close()
	h := s.Handler()
	for k, code := range map[int]int{9: http.StatusOK, 10: http.StatusBadRequest, 13: http.StatusBadRequest} {
		body := fmt.Sprintf(`{"graph":{"family":"cycle","n":12},"k":%d,"reps":1}`, k)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != code {
			t.Errorf("k=%d: HTTP %d, want %d (%s)", k, rec.Code, code, strings.TrimSpace(rec.Body.String()))
		}
	}

	if err := s.queryGate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.queryGate.release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := s.Query(ctx, &QueryRequest{
		Graph: GraphRequest{Family: "cycle", N: 12}, Op: OpDetect, Edge: &[2]int64{0, 1}, K: 10,
	})
	if err == nil || !strings.Contains(err.Error(), "k must be in [3, 9]") {
		t.Fatalf("k=10 at a full gate: err = %v, want the k-range refusal", err)
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.Shed != 0 {
		t.Fatalf("the k=10 query reached the gate: %+v", st)
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

// TestUploadRepeatsHitOneEntry: an upload of the same edge set shuffled,
// with every edge listed twice and in both orientations, builds the same
// canonical graph, so its query is a hit on the first upload's entry and
// answers byte for byte as the first did, apart from elapsed_ms and cache.
func TestUploadRepeatsHitOneEntry(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	rng := xrand.New(5)
	g := graph.ConnectedGNM(64, 200, rng)
	var plain, repeated [][2]int
	for _, e := range g.Edges() {
		plain = append(plain, [2]int{e.U, e.V})
		repeated = append(repeated, [2]int{e.U, e.V}, [2]int{e.V, e.U}, [2]int{e.V, e.U}, [2]int{e.U, e.V})
	}
	rng.Shuffle(len(repeated), func(i, j int) { repeated[i], repeated[j] = repeated[j], repeated[i] })

	var answers [2]map[string]json.RawMessage
	for i, edges := range [][][2]int{plain, repeated} {
		body, err := json.Marshal(QueryRequest{Graph: GraphRequest{N: g.N(), Edges: edges}, K: 5, Eps: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %d: HTTP %d %s", i, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &answers[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []string{`"miss"`, `"hit"`} {
		if got := string(answers[i]["cache"]); got != want {
			t.Fatalf("upload %d: cache %s, want %s", i, got, want)
		}
		delete(answers[i], "cache")
		delete(answers[i], "elapsed_ms")
	}
	first, _ := json.Marshal(answers[0])
	second, _ := json.Marshal(answers[1])
	if string(first) != string(second) {
		t.Fatalf("the repeated upload answered differently:\n first  %s\n second %s", first, second)
	}
	if st := s.Stats(); st.Compiles != 1 {
		t.Fatalf("two uploads of one edge set compiled %d times", st.Compiles)
	}
}

// TestUploadBadEdgeNamed: an upload holding a self-loop, an endpoint at n
// or a negative endpoint is a 400 whose message names that edge.
func TestUploadBadEdgeNamed(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	for _, bad := range []string{"[2,2]", "[1,4]", "[-1,0]"} {
		body := `{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],` + bad + `]},"k":3,"reps":1}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		named := "{" + strings.Trim(bad, "[]") + "}"
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), named) {
			t.Errorf("edge %s: HTTP %d %s, want 400 naming %s", bad, rec.Code, strings.TrimSpace(rec.Body.String()), named)
		}
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

	// /query is the one run endpoint; sweeps run through sweep.RunCtx.
	gone, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /sweep: HTTP %d, want 404", gone.StatusCode)
	}
}

// TestStatsJSONKeys pins the /stats vocabulary after one query: the
// store's counters and per-entry fields, promoted from corestore.Stats,
// next to the server's own. Entry keys are listed as "entries[].<key>".
func TestStatsJSONKeys(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	if _, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "cycle", N: 16},
		K:     5, Eps: 0.1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var entries []map[string]json.RawMessage
	if err := json.Unmarshal(doc["entries"], &entries); err != nil || len(entries) != 1 {
		t.Fatalf("entries = %s (%v), want one entry", doc["entries"], err)
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	for k := range entries[0] {
		got = append(got, "entries[]."+k)
	}
	slices.Sort(got)
	want := []string{
		"cache_bytes", "compiles", "entries",
		"entries[].age_seconds", "entries[].bytes", "entries[].hits",
		"entries[].instances_idle", "entries[].key", "entries[].m", "entries[].n",
		"evictions", "failures", "graphs_cached", "hit_rate",
		"hits", "in_flight", "instance_budget", "instance_bytes", "instances_idle",
		"instances_live", "max_cache_bytes", "max_instance_bytes", "misses",
		"panics_recovered", "queries", "queue_depth", "queue_high_water",
		"shed", "timeouts",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/stats keys:\n got  %q\n want %q", got, want)
	}
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
