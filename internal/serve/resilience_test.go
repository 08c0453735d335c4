package serve

// Resilience tests: admission control, load shedding, deadline-aware
// rejection, the byte-denominated instance budget, panic isolation, and the
// overload soak that drives all of it at once on real faults (budget
// violations and abandoned requests).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
)

// assert429 checks the well-formedness contract of a shed response: status
// 429, a positive integral Retry-After, and the uniform JSON error body.
func assert429(t *testing.T, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || n < 1 {
		t.Errorf("Retry-After %q: want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Errorf("429 body: want the JSON error envelope, got decode err %v, %v", err, e)
	}
}

// soakBudget is the soak server's per-message budget in bits. Over the
// soak's seeds (0-239), k=7 reps=2 runs on G(48,192, seed 9) peak at
// 208-344 bits per message, so this budget fails 17 of them.
const soakBudget = 280

// soakRun is one seed's ground truth: a fresh run under soakBudget either
// decides (Err "") or fails with this exact budget-violation text.
type soakRun struct {
	Dec core.Decision
	Err string
}

func freshSoakRun(t *testing.T, g *graph.Graph, seed uint64) soakRun {
	t.Helper()
	nw, err := network.New(g, network.Options{BandwidthBits: soakBudget})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	res, err := nw.RunProgram(&core.Tester{K: 7, Reps: 2}, seed)
	if err != nil {
		var be *network.ErrBandwidth
		if !errors.As(err, &be) {
			t.Fatalf("seed %d: fresh run failed with %v, want a budget violation or success", seed, err)
		}
		return soakRun{Err: err.Error()}
	}
	return soakRun{Dec: core.Summarize(res.Outputs, res.IDs)}
}

// TestSoakOverloadWithFaults is the overload drill on real faults: offered
// load several times the instance budget, a per-message budget that some
// seeds' runs exceed, and clients abandoning requests mid-flight. The
// server must shed the excess with well-formed 429s,
// never deadlock or crash, return every instance to its pool, and — the
// determinism contract under fire — answer every admitted run exactly as a
// fresh run under the same budget does: the same verdict, or the same
// budget violation.
func TestSoakOverloadWithFaults(t *testing.T) {
	s := NewServer(Options{
		MaxInstances:         2,
		MaxQueueDepth:        2,
		MaxConcurrentQueries: 4,
		BandwidthBits:        soakBudget,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := sweep.BuildGraph(sweep.GraphSpec{Family: "gnm", N: 48, M: 192}, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 12, 20
	want := make([]soakRun, clients*perClient)
	over := 0
	for i := range want {
		if want[i] = freshSoakRun(t, g, uint64(i)); want[i].Err != "" {
			over++
		}
	}
	if over == 0 || over == len(want) {
		t.Fatalf("budget %d fails %d of %d seeds; the soak needs both outcomes", soakBudget, over, len(want))
	}

	// Half the bodies name the engine, half leave it to the default. Every
	// seventh request is abandoned by its client shortly after it is sent.
	engineField := [2]string{``, `,"engine":"bsp"`}
	start := make(chan struct{})
	var wg sync.WaitGroup
	var got200, got400, got429, abandoned atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				seed := c*perClient + i
				body := fmt.Sprintf(
					`{"graph":{"family":"gnm","n":48,"m":192,"seed":9},"k":7,"reps":2,"seed":%d%s}`,
					seed, engineField[(c+i)%2])
				func() {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var abandon *time.Timer
					if seed%7 == 3 {
						abandon = time.AfterFunc(time.Duration(seed%5)*200*time.Microsecond, cancel)
					}
					req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/query", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if abandon != nil && !abandon.Stop() {
						// The client gave up mid-flight: whatever arrived is moot,
						// but a failed request must have failed for that reason.
						if err == nil {
							resp.Body.Close()
						} else if !errors.Is(err, context.Canceled) {
							t.Errorf("seed %d: abandoned request failed with %v", seed, err)
						}
						abandoned.Add(1)
						return
					}
					if err != nil {
						t.Errorf("client %d query %d: %v", c, i, err)
						return
					}
					defer resp.Body.Close()
					w := want[seed]
					switch resp.StatusCode {
					case http.StatusOK:
						var qr QueryResponse
						if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
							t.Errorf("client %d query %d: %v", c, i, err)
						} else if w.Err != "" {
							t.Errorf("seed %d: served a verdict, but a fresh run fails: %s", seed, w.Err)
						} else if qr.Rejected != w.Dec.Reject ||
							!reflect.DeepEqual(qr.RejectingIDs, w.Dec.RejectingIDs) ||
							!reflect.DeepEqual(qr.Witness, w.Dec.Witness) {
							t.Errorf("seed %d: served verdict differs from fresh run under soak", seed)
						}
						got200.Add(1)
					case http.StatusTooManyRequests:
						assert429(t, resp)
						got429.Add(1)
					case http.StatusBadRequest:
						// Only a budget violation may fail a run, and it must be
						// the one a fresh run reports.
						var e map[string]string
						if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] != w.Err || w.Err == "" {
							t.Errorf("seed %d: 400 %q (decode err %v), want the fresh run's error %q", seed, e["error"], err, w.Err)
						}
						got400.Add(1)
					case http.StatusGatewayTimeout:
						// A deadline lost to queueing under overload: orderly.
					default:
						t.Errorf("seed %d: unexpected HTTP %d", seed, resp.StatusCode)
					}
				}()
			}
		}(c)
	}
	close(start)
	wg.Wait()

	// Quiesce: every queue drains, every instance returns to a pool.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.InFlight == 0 && st.QueueDepth == 0 && st.InstancesIdle == st.InstancesLive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not quiesce after the soak: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.InstancesLive > 2 {
		t.Fatalf("soak blew the instance budget: %+v", st)
	}
	if got429.Load() == 0 || st.Shed == 0 {
		t.Errorf("offered load 6x the gate never shed: 429s=%d stats=%+v", got429.Load(), st)
	}
	if got200.Load() == 0 {
		t.Errorf("soak starved every request; overload must degrade, not deny all service")
	}
	if failed := s.met.engine.failed.Value(); failed == 0 {
		t.Errorf("no run exceeded the budget: engine_failed_total=0 (400s=%d)", got400.Load())
	}
	if st.QueueHighWater < 1 {
		t.Errorf("overload never queued anything: %+v", st)
	}
	t.Logf("soak: %d ok, %d over budget, %d shed, %d abandoned", got200.Load(), got400.Load(), got429.Load(), abandoned.Load())

	// Post-fault determinism: a seed whose fresh run fits the budget must
	// answer byte-identically to it, on the very instances the failed and
	// abandoned runs went through.
	cleanSeed := uint64(1000)
	fresh := freshSoakRun(t, g, cleanSeed)
	for fresh.Err != "" {
		cleanSeed++
		fresh = freshSoakRun(t, g, cleanSeed)
	}
	resp, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 48, M: 192, Seed: 9},
		K:     7, Reps: 2, Seed: cleanSeed,
	})
	if err != nil {
		t.Fatalf("post-soak query: %v", err)
	}
	if resp.Rejected != fresh.Dec.Reject ||
		!reflect.DeepEqual(resp.RejectingIDs, fresh.Dec.RejectingIDs) ||
		!reflect.DeepEqual(resp.Witness, fresh.Dec.Witness) {
		t.Fatal("post-fault served verdict differs from fresh run")
	}
}

// TestBudgetReclaimAdmissionRace hammers the exact contention the admission
// layer guards: many clients, a tiny instance budget, distinct graphs
// fighting over it via reclaim, bounded wait queues shedding the excess.
// Run under -race this is the no-lost-wakeup/no-deadlock proof: every
// query either succeeds or sheds, the queues drain to zero, and the budget
// is intact at the end.
func TestBudgetReclaimAdmissionRace(t *testing.T) {
	s := NewServer(Options{MaxInstances: 2, MaxQueueDepth: 4, MaxConcurrentQueries: 6})
	defer s.Close()
	var wg sync.WaitGroup
	var shed atomic.Int64
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				_, err := s.Query(context.Background(), &QueryRequest{
					Graph: GraphRequest{Family: "cycle", N: 10 + (c+i)%6},
					K:     5, Reps: 1, Seed: uint64(i),
				})
				if err != nil {
					var ov *ErrOverloaded
					if !errors.As(err, &ov) {
						t.Errorf("client %d query %d: %v", c, i, err)
						return
					}
					shed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.QueueDepth != 0 {
		t.Fatalf("wait queues did not drain: %+v", st)
	}
	if st.InstancesLive > 2 || st.InstancesIdle > st.InstancesLive {
		t.Fatalf("budget accounting broken after contention: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("background-context queries timed out — lost wakeup? %+v", st)
	}
	if st.Shed != shed.Load() {
		t.Fatalf("shed counter %d disagrees with client-observed sheds %d", st.Shed, shed.Load())
	}
}

// TestHTTP429WellFormed pins the shed response deterministically: with the
// service slot held and the wait queue occupied, the next query must shed
// as a clean 429.
func TestHTTP429WellFormed(t *testing.T) {
	s := NewServer(Options{MaxConcurrentQueries: 1, MaxQueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitDepth := func(d int64) {
		t.Helper()
		for i := 0; s.queueDepth.Load() != d; i++ {
			if i > 2000 {
				t.Fatalf("queue depth never reached %d", d)
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("query", func(t *testing.T) {
		if err := s.queryGate.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.Query(context.Background(), &QueryRequest{
				Graph: GraphRequest{Family: "cycle", N: 10}, K: 5, Reps: 1,
			})
			done <- err
		}()
		waitDepth(1) // the goroutine's query is parked in the full wait queue

		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"graph":{"family":"cycle","n":10},"k":5,"reps":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		assert429(t, resp)

		s.queryGate.release()
		if err := <-done; err != nil {
			t.Fatalf("parked query after release: %v", err)
		}
		if st := s.Stats(); st.Shed != 1 || st.QueueHighWater < 1 {
			t.Fatalf("shed accounting: %+v", st)
		}
	})
}

// TestDeadlineAwareShed: once the run histogram knows the median run
// time, a request whose remaining deadline cannot cover it is shed
// immediately — counted as a shed, not burned into a 504.
func TestDeadlineAwareShed(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	for i := 0; i < 128; i++ {
		s.met.run.Observe(int64(80 * time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := s.Query(ctx, &QueryRequest{
		Graph: GraphRequest{Family: "cycle", N: 10}, K: 5, Reps: 1,
	})
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Endpoint != "deadline" {
		t.Fatalf("want a deadline shed, got %v", err)
	}
	if ov.RetryAfter < 10*time.Millisecond {
		t.Fatalf("Retry-After hint too small to be useful: %v", ov.RetryAfter)
	}
	if st := s.Stats(); st.Shed != 1 || st.Timeouts != 0 || st.Failures != 0 {
		t.Fatalf("a deadline shed is a shed, nothing else: %+v", st)
	}
}

// TestInstanceByteBudget: with MaxInstanceBytes too small for even one
// core, the escape hatch admits exactly one live instance at a time —
// alternating graphs reclaim it back and forth instead of accumulating,
// and every query still succeeds.
func TestInstanceByteBudget(t *testing.T) {
	s := NewServer(Options{MaxInstances: 8, MaxInstanceBytes: 1})
	defer s.Close()
	for i := 0; i < 8; i++ {
		if _, err := s.Query(context.Background(), &QueryRequest{
			Graph: GraphRequest{Family: "cycle", N: 10 + i%2},
			K:     5, Reps: 1, Seed: uint64(i),
		}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if st := s.Stats(); st.InstancesLive != 1 {
			t.Fatalf("query %d: byte budget must pin live instances at one: %+v", i, st)
		}
	}
	st := s.Stats()
	if st.Failures != 0 || st.InstanceBytes <= 0 || st.MaxInstanceBytes != 1 {
		t.Fatalf("byte accounting after alternating reclaim: %+v", st)
	}
}

// TestRecoverPanics: a panicking handler answers 500 with the JSON error
// envelope and bumps the counter; http.ErrAbortHandler keeps its meaning
// (re-panicked, not swallowed).
func TestRecoverPanics(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	h := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", rr.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("500 body: want the JSON error envelope, got %q", rr.Body.String())
	}
	if got := s.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}

	abort := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("ErrAbortHandler must re-panic, recovered %v", p)
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	}()
	if got := s.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("ErrAbortHandler must not count as a recovered panic: %d", got)
	}
}
