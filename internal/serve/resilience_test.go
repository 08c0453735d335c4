package serve

// Resilience tests: admission control, load shedding, deadline-aware
// rejection, the byte-denominated instance budget, panic isolation, and the
// fault-injection soak that drives all of it at once.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// TestSoakOverloadWithFaults is the chaos drill: offered load several times
// the instance budget, engine faults (panics, bandwidth violations,
// cancellations) injected into ~15% of runs, and sweep traffic mixed in. The
// server must shed the excess with well-formed 429s, never deadlock or
// crash, return every instance to its pool, and — the determinism contract
// under fire — answer every admitted clean run byte-identically to a fresh
// one-shot run, including after faults.
func TestSoakOverloadWithFaults(t *testing.T) {
	plan := &network.FaultPlan{Decide: network.RandomFaults(0.15)}
	s := NewServer(Options{
		MaxInstances:         2,
		MaxQueueDepth:        2,
		MaxConcurrentQueries: 4,
		Faults:               plan,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := sweep.BuildGraph(sweep.GraphSpec{Family: "gnm", N: 48, M: 192}, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 12, 20
	// Ground truth per seed, computed fault-free: any 200 the soak gets back
	// must match it exactly (faulted runs never answer 200 — every fault
	// kind errors the run).
	want := make([]core.Decision, clients*perClient)
	for i := range want {
		want[i] = freshDecision(t, g, 5, 2, 0, uint64(i))
	}

	// Half the bodies name the engine, half leave it to the default.
	engineField := [2]string{``, `,"engine":"bsp"`}
	start := make(chan struct{})
	var wg sync.WaitGroup
	var got200, got429 atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				seed := c*perClient + i
				body := fmt.Sprintf(
					`{"graph":{"family":"gnm","n":48,"m":192,"seed":9},"k":5,"reps":2,"seed":%d%s}`,
					seed, engineField[(c+i)%2])
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var qr QueryResponse
					if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
						t.Errorf("client %d query %d: %v", c, i, err)
					} else if qr.Rejected != want[seed].Reject ||
						!reflect.DeepEqual(qr.RejectingIDs, want[seed].RejectingIDs) ||
						!reflect.DeepEqual(qr.Witness, want[seed].Witness) {
						t.Errorf("seed %d: served verdict differs from fresh run under soak", seed)
					}
					got200.Add(1)
				case http.StatusTooManyRequests:
					assert429(t, resp)
					got429.Add(1)
				case http.StatusBadRequest:
					// Injected panic or bandwidth fault surfacing through the
					// run; anything else rejected here is a real bug.
					b, _ := io.ReadAll(resp.Body)
					if !strings.Contains(string(b), "injected") {
						t.Errorf("seed %d: unexpected 400: %s", seed, b)
					}
				case http.StatusRequestTimeout, http.StatusGatewayTimeout:
					// An injected cancellation (408) or a deadline lost to
					// queueing under overload (504): both are orderly.
				default:
					t.Errorf("seed %d: unexpected HTTP %d", seed, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(c)
	}
	// Sweep traffic over the same saturated budget: outcomes may be
	// success, a shed, or an injected fault surviving its retries — but
	// never a hang or an unexplained failure.
	for sw := 0; sw < 2; sw++ {
		wg.Add(1)
		go func(sw int) {
			defer wg.Done()
			<-start
			for i := 0; i < 3; i++ {
				spec := &sweep.Spec{
					Graphs: []sweep.GraphSpec{{Family: "gnm", N: 48, M: 192}},
					K:      []int{5}, Eps: []float64{0.25},
					Trials: 2, Seed: uint64(9 + i), Workers: 2,
				}
				_, err := s.RunSweep(context.Background(), spec,
					sweep.FuncSink(func(*sweep.Result) error { return nil }))
				if err != nil {
					var ov *ErrOverloaded
					var inj *network.ErrInjected
					if !errors.As(err, &ov) && !errors.As(err, &inj) && !errors.Is(err, context.Canceled) {
						t.Errorf("sweep %d/%d: %v", sw, i, err)
					}
				}
			}
		}(sw)
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
	if plan.Injected() == 0 || st.FaultsInjected == 0 {
		t.Errorf("fault plan never fired: plan=%d stats=%+v", plan.Injected(), st)
	}
	if st.QueueHighWater < 1 {
		t.Errorf("overload never queued anything: %+v", st)
	}

	// Post-fault determinism: a seed the plan provably leaves clean must
	// answer byte-identically to a fresh run, on the very instances the
	// faults ran through.
	cleanSeed := uint64(0)
	for sd := uint64(1000); ; sd++ {
		if _, ok := plan.Decide(sd, g.N(), 8); !ok {
			cleanSeed = sd
			break
		}
	}
	resp, err := s.Query(context.Background(), &QueryRequest{
		Graph: GraphRequest{Family: "gnm", N: 48, M: 192, Seed: 9},
		K:     5, Reps: 2, Seed: cleanSeed,
	})
	if err != nil {
		t.Fatalf("post-soak query: %v", err)
	}
	fresh := freshDecision(t, g, 5, 2, 0, cleanSeed)
	if resp.Rejected != fresh.Reject ||
		!reflect.DeepEqual(resp.RejectingIDs, fresh.RejectingIDs) ||
		!reflect.DeepEqual(resp.Witness, fresh.Witness) {
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

// TestHTTP429WellFormed pins the shed responses deterministically: with the
// service slot held and the wait queue occupied, the next request on each
// endpoint must shed as a clean 429 — for /sweep, BEFORE any stream framing
// is committed (the Content-Type proves it: JSON error, not ndjson).
func TestHTTP429WellFormed(t *testing.T) {
	s := NewServer(Options{MaxConcurrentQueries: 1, MaxConcurrentSweeps: 1, MaxQueueDepth: 1})
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

	t.Run("sweep", func(t *testing.T) {
		if err := s.sweepGate.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		spec := func() *sweep.Spec {
			return &sweep.Spec{
				Graphs: []sweep.GraphSpec{{Family: "cycle", N: 10}},
				K:      []int{5}, Eps: []float64{0.25}, Trials: 1, Seed: 1,
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := s.RunSweep(context.Background(), spec(),
				sweep.FuncSink(func(*sweep.Result) error { return nil }))
			done <- err
		}()
		waitDepth(1)

		resp, err := http.Post(ts.URL+"/sweep", "application/json",
			strings.NewReader(`{"graphs":[{"family":"cycle","n":10}],"k":[5],"eps":[0.25],"trials":1,"seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("shed sweep leaked stream framing: Content-Type %q", ct)
		}
		assert429(t, resp)

		s.sweepGate.release()
		if err := <-done; err != nil {
			t.Fatalf("parked sweep after release: %v", err)
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
