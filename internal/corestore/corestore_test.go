package corestore

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
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

	if s.Hits() != 1 || s.Misses() != 1 || s.Compiles() != 1 {
		t.Fatalf("hits=%d misses=%d compiles=%d, want 1/1/1", s.Hits(), s.Misses(), s.Compiles())
	}
	if live, idle := s.InstancesLive(), s.InstancesIdle(); live != 1 || idle != 1 {
		t.Fatalf("live=%d idle=%d, want 1/1", live, idle)
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
	if got := s.GraphsCached(); got != 2 {
		t.Fatalf("cached %d graphs after over-budget inserts, want 2", got)
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", s.Evictions())
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
	if got := s.GraphsCached(); got != 2 {
		t.Fatalf("cached %d graphs with MaxGraphs=2, want 2", got)
	}
}

// Saturation: with a budget of one instance and a zero-length wait queue,
// a second concurrent checkout fails fast with a transient *ErrSaturated.
func TestSaturationFailsFast(t *testing.T) {
	s := New(Options{MaxInstances: 1, MaxQueueDepth: 1})
	defer s.Close()
	h1, _ := mustCheckout(t, s, "g", cycleBuild(16))

	// First waiter parks (fills the queue of 1)…
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	parked := make(chan struct{})
	go func() {
		defer wg.Done()
		s.mu.Lock()
		for s.budgetWaiters == 0 && ctx.Err() == nil {
			s.mu.Unlock()
			time.Sleep(time.Millisecond)
			s.mu.Lock()
		}
		s.mu.Unlock()
		close(parked)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		h, _, err := s.Checkout(ctx, "g", cycleBuild(16), network.EngineBSP, 1)
		if err == nil {
			s.Release(h)
		}
	}()
	<-parked

	// …so the second one is shed immediately.
	_, _, err := s.Checkout(context.Background(), "g", cycleBuild(16), network.EngineBSP, 1)
	var sat *ErrSaturated
	if !errors.As(err, &sat) {
		t.Fatalf("want *ErrSaturated, got %v", err)
	}
	if !sweep.IsTransient(err) {
		t.Fatal("saturation must be transient (sweep retries it)")
	}
	cancel()
	s.Release(h1)
	wg.Wait()
}

// A release unblocks a parked waiter: budget of one, two sequentialized
// checkouts of the same pool.
func TestWaitUnblocksOnRelease(t *testing.T) {
	s := New(Options{MaxInstances: 1, MaxQueueDepth: 4})
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
	s := New(Options{MaxInstances: 1, MaxQueueDepth: 1})
	defer s.Close()
	h, _ := mustCheckout(t, s, "cold", cycleBuild(16))
	s.Release(h) // "cold" now holds the only budgeted instance, idle

	h2, _ := mustCheckout(t, s, "hot", cycleBuild(32))
	defer s.Release(h2)
	if s.InstancesLive() != 1 {
		t.Fatalf("live=%d after reclaim, want 1", s.InstancesLive())
	}
	if s.InstancesIdle() != 0 {
		t.Fatal("cold graph kept its idle instance despite the budget")
	}
}

// A reclaimed instance is closed and must become garbage: popping it off
// the idle list may not leave it reachable from the list's backing array
// until the cold graph itself is evicted. On a fresh 2048-node graph such
// an instance holds megabytes of per-node state.
func TestReclaimedInstanceCollectable(t *testing.T) {
	s := New(Options{MaxInstances: 1, MaxQueueDepth: 1})
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

// The store is a sweep.CoreProvider: a trial checkout lands in the same
// cache as a Checkout under the same family key.
func TestSweepProviderSharesCache(t *testing.T) {
	var _ sweep.CoreProvider = (*Store)(nil)

	s := New(Options{})
	defer s.Close()
	pt := sweep.TrialPoint{
		Graph:  sweep.GraphSpec{Family: "cycle", N: 20},
		K:      5,
		Seed:   3,
		Engine: network.EngineBSP,
	}
	inst, release, err := s.Acquire(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if inst == nil {
		t.Fatal("nil instance")
	}
	release()

	key := sweep.FamilyKey(pt.Graph, pt.K, pt.Eps, pt.Seed)
	_, hit := mustCheckout(t, s, key, func() (*graph.Graph, error) {
		t.Fatal("hit must not rebuild")
		return nil, nil
	})
	if !hit {
		t.Fatal("query checkout after sweep acquire missed: the two paths use different keys")
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

func TestCloseFailsCheckouts(t *testing.T) {
	s := New(Options{})
	h, _ := mustCheckout(t, s, "a", cycleBuild(16))
	s.Close()
	if _, _, err := s.Checkout(context.Background(), "a", cycleBuild(16), network.EngineBSP, 1); err == nil {
		t.Fatal("checkout succeeded on a closed store")
	}
	s.Release(h) // must not panic; instance is closed, not re-pooled
	if s.InstancesLive() != 0 {
		t.Fatal("release after close leaked an instance")
	}
}
