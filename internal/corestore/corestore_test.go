package corestore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

func cycleBuild(n int) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return graph.Cycle(n), nil }
}

func mustCheckout(t *testing.T, s *Store, key string, build func() (*graph.Graph, error)) (*Handle, bool) {
	t.Helper()
	h, hit, err := s.Checkout(context.Background(), key, build, network.EngineBSP, 1)
	if err != nil {
		t.Fatalf("Checkout(%s): %v", key, err)
	}
	return h, hit
}

func TestCheckoutHitMissRelease(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	h1, hit := mustCheckout(t, s, "a", cycleBuild(16))
	if hit {
		t.Fatal("first checkout reported a hit")
	}
	if h1.Scratch != nil {
		t.Fatal("fresh handle carries scratch state")
	}
	h1.Scratch = "kept"
	s.Release(h1)

	h2, hit := mustCheckout(t, s, "a", cycleBuild(16))
	if !hit {
		t.Fatal("second checkout missed")
	}
	if h2 != h1 || h2.Scratch != "kept" {
		t.Fatal("warm handle (and its scratch) was not reused")
	}
	s.Release(h2)

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Compiles != 1 {
		t.Fatalf("hits=%d misses=%d compiles=%d, want 1/1/1", st.Hits, st.Misses, st.Compiles)
	}
	if st.InstancesLive != 1 || st.InstancesIdle != 1 {
		t.Fatalf("live=%d idle=%d, want 1/1", st.InstancesLive, st.InstancesIdle)
	}
}

func TestRunOnCheckout(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	h, _ := mustCheckout(t, s, "g", cycleBuild(24))
	defer s.Release(h)
	res, err := h.Inst.RunProgram(&core.Tester{K: 5, Reps: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds == 0 {
		t.Fatal("run executed no rounds")
	}
}

// Byte-weighted eviction: inserting past MaxCacheBytes evicts the coldest
// entries, closing their idle instances and invalidating mid-flight
// checkouts (which retry transparently — exercised here by a checkout
// after eviction).
func TestByteWeightedEviction(t *testing.T) {
	// Each Cycle(256) compiles to a few KiB; bound the cache to roughly two.
	probe, err := network.Compile(graph.Cycle(256), network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxCacheBytes: 2*probe.MemSize() + probe.MemSize()/2})
	defer s.Close()

	for _, key := range []string{"a", "b", "c"} {
		h, _ := mustCheckout(t, s, key, cycleBuild(256))
		s.Release(h)
	}
	if got := s.Stats().GraphsCached; got != 2 {
		t.Fatalf("cached %d graphs after over-budget inserts, want 2", got)
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("evictions=%d, want 1", got)
	}
	// The evicted entry ("a", the coldest) recompiles on demand.
	_, hit := mustCheckout(t, s, "a", cycleBuild(256))
	if hit {
		t.Fatal("evicted entry reported a cache hit")
	}
}

func TestEntryCountBound(t *testing.T) {
	s := New(Options{MaxGraphs: 2})
	defer s.Close()
	for _, key := range []string{"a", "b", "c", "d"} {
		h, _ := mustCheckout(t, s, key, cycleBuild(8))
		s.Release(h)
	}
	if got := s.Stats().GraphsCached; got != 2 {
		t.Fatalf("cached %d graphs with MaxGraphs=2, want 2", got)
	}
}

// A release unblocks a parked waiter: budget of one, two sequentialized
// checkouts of the same pool.
func TestWaitUnblocksOnRelease(t *testing.T) {
	s := New(Options{MaxInstances: 1})
	defer s.Close()
	h1, _ := mustCheckout(t, s, "g", cycleBuild(16))

	got := make(chan *Handle, 1)
	go func() {
		h, _, err := s.Checkout(context.Background(), "g", cycleBuild(16), network.EngineBSP, 1)
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		got <- h
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park
	s.Release(h1)
	select {
	case h := <-got:
		if h == nil {
			t.Fatal("waiter failed")
		}
		if h != h1 {
			t.Fatal("waiter did not get the released warm handle")
		}
		s.Release(h)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never unblocked after release")
	}
}

// Coldest-graph reclaim: when the budget is exhausted but another graph
// holds an idle instance, the checkout reclaims it instead of waiting.
func TestColdestGraphReclaim(t *testing.T) {
	s := New(Options{MaxInstances: 1})
	defer s.Close()
	h, _ := mustCheckout(t, s, "cold", cycleBuild(16))
	s.Release(h) // "cold" now holds the only budgeted instance, idle

	h2, _ := mustCheckout(t, s, "hot", cycleBuild(32))
	defer s.Release(h2)
	st := s.Stats()
	if st.InstancesLive != 1 {
		t.Fatalf("live=%d after reclaim, want 1", st.InstancesLive)
	}
	if st.InstancesIdle != 0 {
		t.Fatal("cold graph kept its idle instance despite the budget")
	}
}

// A reclaimed instance is closed and must become garbage: popping it off
// the idle list may not leave it reachable from the list's backing array
// until the cold graph itself is evicted. On a fresh 2048-node graph such
// an instance holds megabytes of per-node state.
func TestReclaimedInstanceCollectable(t *testing.T) {
	s := New(Options{MaxInstances: 1})
	defer s.Close()
	cold := func() weak.Pointer[network.Instance] {
		h, _ := mustCheckout(t, s, "cold", cycleBuild(16))
		defer s.Release(h)
		return weak.Make(h.Inst)
	}()

	h2, _ := mustCheckout(t, s, "hot", cycleBuild(32)) // reclaims cold's instance
	defer s.Release(h2)
	runtime.GC()
	if cold.Value() != nil {
		t.Fatal("reclaimed instance is still reachable after GC")
	}
}

// awaitWaiters blocks until n checkouts wait on the in-flight build of key.
func awaitWaiters(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.mu.Lock()
		waiting := s.flights[key].waiters
		s.mu.Unlock()
		if waiting == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d checkouts wait on the build of %q after 10 s, want %d", waiting, key, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Two concurrent first checkouts of one key compile it once: the second
// finds the first one's build in flight and waits for it. Neither found
// the core cached, so both report and count a miss, not a hit, and the
// store counts one compile.
func TestLostBuildRaceCountsMiss(t *testing.T) {
	s := New(Options{MaxInstances: 2})
	defer s.Close()
	var builds atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	build := func() (*graph.Graph, error) {
		if builds.Add(1) == 1 {
			close(entered)
		}
		<-release
		return graph.Cycle(16), nil
	}
	hits := make([]bool, 2)
	var wg sync.WaitGroup
	checkout := func(i int) {
		defer wg.Done()
		h, hit, err := s.Checkout(context.Background(), "g", build, network.EngineBSP, 1)
		if err != nil {
			t.Error(err)
			return
		}
		hits[i] = hit
		s.Release(h)
	}
	wg.Add(2)
	go checkout(0)
	<-entered // the first checkout is building
	go checkout(1)
	awaitWaiters(t, s, "g", 1)
	close(release)
	wg.Wait()
	if hits[0] || hits[1] {
		t.Errorf("hit flags = %v, want both false: neither found the core cached", hits)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Compiles != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("compiles=%d misses=%d hits=%d, want 1/2/0", st.Compiles, st.Misses, st.Hits)
	}
	if st.GraphsCached != 1 || st.Entries[0].Hits != 0 {
		t.Fatalf("graphs_cached=%d entry hits=%d, want 1/0", st.GraphsCached, st.Entries[0].Hits)
	}
}

// A build that fails is shared too: the checkout waiting on it gets the
// same error without building, and the key is free for the next checkout.
func TestFailedBuildSharedWithWaiters(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	var builds atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	boom := errors.New("generator failed")
	failing := func() (*graph.Graph, error) {
		if builds.Add(1) == 1 {
			close(entered)
		}
		<-release
		return nil, boom
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := range errs {
		go func() {
			defer wg.Done()
			if i == 1 {
				<-entered
			}
			_, _, errs[i] = s.Checkout(context.Background(), "g", failing, network.EngineBSP, 1)
		}()
	}
	<-entered
	awaitWaiters(t, s, "g", 1)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("checkout %d: err = %v, want %v", i, err, boom)
		}
	}
	if n, st := builds.Load(), s.Stats(); n != 1 || st.Compiles != 0 || st.Misses != 0 {
		t.Fatalf("builds=%d compiles=%d misses=%d, want 1/0/0", n, st.Compiles, st.Misses)
	}
	h, hit := mustCheckout(t, s, "g", cycleBuild(16))
	if c := s.Stats().Compiles; hit || builds.Load() != 1 || c != 1 {
		t.Fatalf("checkout after the failed build: hit=%v builds=%d compiles=%d, want false/1/1", hit, builds.Load(), c)
	}
	s.Release(h)
}

// A checkout waiting on another's build gives up when its context ends.
func TestFlightWaitHonorsContext(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	build := func() (*graph.Graph, error) {
		close(entered)
		<-release
		return graph.Cycle(16), nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h, _, err := s.Checkout(context.Background(), "g", build, network.EngineBSP, 1)
		if err != nil {
			t.Error(err)
			return
		}
		s.Release(h)
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := s.Checkout(ctx, "g", build, network.EngineBSP, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting checkout: err = %v, want %v", err, context.DeadlineExceeded)
	}
	close(release)
	<-done
	if st := s.Stats(); st.Compiles != 1 || st.Misses != 1 {
		t.Fatalf("compiles=%d misses=%d, want 1/1", st.Compiles, st.Misses)
	}
}

// An entry evicted while its checkout waits must not strand the waiter:
// Checkout retries against the live cache and succeeds.
func TestCheckoutRetriesAcrossEviction(t *testing.T) {
	s := New(Options{MaxGraphs: 1})
	defer s.Close()
	h, _ := mustCheckout(t, s, "a", cycleBuild(16))
	s.Release(h)

	// Insert "b": evicts "a" (entry bound 1). A fresh checkout of "a"
	// recompiles and succeeds.
	hb, _ := mustCheckout(t, s, "b", cycleBuild(16))
	s.Release(hb)
	ha, hit := mustCheckout(t, s, "a", cycleBuild(16))
	if hit {
		t.Fatal("checkout of evicted entry claimed a hit")
	}
	s.Release(ha)
}

// Checkout refuses any engine name but the one engine's, before the
// lookup: a cached entry does not let it through, and a miss compiles
// nothing.
func TestCheckoutRefusesUnknownEngine(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	h, _ := mustCheckout(t, s, "a", cycleBuild(16))
	s.Release(h)
	for _, key := range []string{"a", "b"} {
		_, _, err := s.Checkout(context.Background(), key, func() (*graph.Graph, error) {
			t.Fatal("a refused checkout must not build")
			return nil, nil
		}, "channels", 1)
		if want := `corestore: unknown engine "channels"`; err == nil || err.Error() != want {
			t.Fatalf("key %q: err = %v, want %s", key, err, want)
		}
	}
	if c := s.Stats().Compiles; c != 1 {
		t.Fatalf("compiles = %d, want 1", c)
	}
}

func TestCloseFailsCheckouts(t *testing.T) {
	s := New(Options{})
	h, _ := mustCheckout(t, s, "a", cycleBuild(16))
	s.Close()
	if _, _, err := s.Checkout(context.Background(), "a", cycleBuild(16), network.EngineBSP, 1); err == nil {
		t.Fatal("checkout succeeded on a closed store")
	}
	s.Release(h) // must not panic; instance is closed, not re-pooled
	if s.Stats().InstancesLive != 0 {
		t.Fatal("release after close leaked an instance")
	}
}

// TestCheckoutWidth: every instance of a store runs at its one width,
// Options.DefaultWorkers. A checkout that names another width is refused
// before anything compiles, and width 0 gets the store's.
func TestCheckoutWidth(t *testing.T) {
	// Instance widths are capped by the vertex count, not by GOMAXPROCS, so
	// width 2 survives on a 1-CPU machine.
	s := New(Options{DefaultWorkers: 2})
	defer s.Close()
	for _, width := range []int{1, 3} {
		_, _, err := s.Checkout(context.Background(), "c16", func() (*graph.Graph, error) {
			t.Fatal("a refused checkout must not build")
			return nil, nil
		}, network.EngineBSP, width)
		if want := fmt.Sprintf("corestore: width %d is not the store's width 2", width); err == nil || err.Error() != want {
			t.Fatalf("width %d: err = %v, want %s", width, err, want)
		}
	}
	if c := s.Stats().Compiles; c != 0 {
		t.Fatalf("refused checkouts compiled %d cores", c)
	}
	for _, width := range []int{0, 2} {
		h, _, err := s.Checkout(context.Background(), "c16", cycleBuild(16), network.EngineBSP, width)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Inst.Workers(); got != 2 {
			t.Fatalf("width-%d checkout gave an instance of width %d, want DefaultWorkers (2)", width, got)
		}
		s.Release(h)
	}
}
