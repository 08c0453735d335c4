// Equivalence and allocation tests for the engine loops: every assertion
// that a reused Instance matches runOnce is an assertion that the warm,
// node-cached path of the one loop matches its own single-use path. The
// file is package network_test so it can run internal/core's programs
// (core imports network).
package network_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

var engines = []network.Engine{network.EngineBSP, network.EngineChannels}

// runOnce is the single-use reference run: a fresh Instance, one program,
// Close. The Result stays valid after Close (only the engine goroutines are
// released), and nothing else holds the Instance, so the caller owns it.
func runOnce(g *graph.Graph, p network.Program, opts network.Options, seed uint64) (*network.Result, error) {
	nw, err := network.New(g, opts)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	return nw.RunProgram(p, seed)
}

// testGraphs returns the cross-engine equivalence fixtures: an accepting
// tree, a rejecting ε-far instance (exercises witness state), a random
// G(n,m), and a dense bipartite graph (heavy Phase-2 fan-in).
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := xrand.New(42)
	far, _ := graph.FarFromCkFree(40, 5, 0.05, rng)
	return map[string]*graph.Graph{
		"tree":  graph.RandomTree(30, rng),
		"far":   far,
		"gnm":   graph.ConnectedGNM(48, 4*48, rng),
		"K6x6":  graph.CompleteBipartite(6, 6),
		"cycle": graph.Cycle(9),
	}
}

// TestRunProgramMatchesCongest locks the reuse contract: a reused
// Network produces results byte-identical to a fresh single-use run for
// every graph, engine, program, and seed — including runs late in the
// Network's life, after many node reuses with different seeds.
func TestRunProgramMatchesCongest(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, engine := range engines {
			t.Run(name+"/"+string(engine), func(t *testing.T) {
				nw, err := network.New(g, network.Options{Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				defer nw.Close()
				// One Program value reused across seeds: the node-cache path.
				prog := &core.Tester{K: 5, Reps: 2}
				for seed := uint64(0); seed < 6; seed++ {
					want, err := runOnce(g, &core.Tester{K: 5, Reps: 2}, network.Options{Engine: engine}, seed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := nw.RunProgram(prog, seed)
					if err != nil {
						t.Fatal(err)
					}
					assertResultsEqual(t, seed, want, got)
				}
				// Even k takes the sent-arena detect path; also a program
				// switch on a live network (cache invalidation).
				prog6 := &core.Tester{K: 6, Reps: 2}
				want, err := runOnce(g, &core.Tester{K: 6, Reps: 2}, network.Options{Engine: engine}, 11)
				if err != nil {
					t.Fatal(err)
				}
				got, err := nw.RunProgram(prog6, 11)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, 11, want, got)
			})
		}
	}
}

// TestRunProgramMatchesCongestDetector covers the deterministic Phase-2
// program and a non-trivial ID assignment.
func TestRunProgramMatchesCongestDetector(t *testing.T) {
	rng := xrand.New(7)
	g := graph.ConnectedGNM(32, 96, rng)
	e := g.Edges()[3]
	ids := make([]network.ID, g.N())
	for v := range ids {
		ids[v] = network.ID(1000 + 3*v) // arbitrary distinct assignment
	}
	prog := &core.EdgeDetector{K: 6, U: ids[e.U], V: ids[e.V]}
	for _, engine := range engines {
		nw, err := network.New(g, network.Options{Engine: engine, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 3; seed++ {
			want, err := runOnce(g, &core.EdgeDetector{K: 6, U: ids[e.U], V: ids[e.V]}, network.Options{Engine: engine, IDs: ids}, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nw.RunProgram(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, seed, want, got)
		}
		nw.Close()
	}
}

// TestRunProgramSingleWorker pins equivalence for Workers: 1, the
// configuration the sweep scheduler uses when it shards networks across
// cores itself.
func TestRunProgramSingleWorker(t *testing.T) {
	rng := xrand.New(9)
	g := graph.ConnectedGNM(40, 160, rng)
	nw, err := network.New(g, network.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	prog := &core.Tester{K: 7, Reps: 2}
	for seed := uint64(0); seed < 4; seed++ {
		want, err := runOnce(g, &core.Tester{K: 7, Reps: 2}, network.Options{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nw.RunProgram(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, seed, want, got)
	}
}

func assertResultsEqual(t *testing.T, seed uint64, want, got *network.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.IDs, got.IDs) {
		t.Fatalf("seed %d: ID assignment differs", seed)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Fatalf("seed %d: outputs differ\n got  %v\n want %v", seed, got.Outputs, want.Outputs)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("seed %d: stats differ\n got  %+v\n want %+v", seed, got.Stats, want.Stats)
	}
}

// TestNetworkRunAllocFree is the allocation regression for the tentpole:
// once a Network and its cached nodes are warm, repeated RunProgram calls
// with the same Program value must not allocate at all — on EITHER engine.
// For the channels engine this also locks the persistent-goroutine design:
// a per-run goroutine spawn would show up as at least one allocation per
// node. The graph is Ck-free so no run ever assembles a witness (witness
// assembly is allowed to allocate — rejection ends a workload).
func TestNetworkRunAllocFree(t *testing.T) {
	rng := xrand.New(5)
	g := graph.RandomTree(64, rng)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			nw, err := network.New(g, network.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			prog := &core.Tester{K: 5, Reps: 4}
			seed := uint64(0)
			for ; seed < 5; seed++ { // warm arenas, rank buffers, and the node cache
				if _, err := nw.RunProgram(prog, seed); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				seed++
				if _, err := nw.RunProgram(prog, seed); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("steady-state RunProgram allocates %.1f times; want 0", allocs)
			}
		})
	}
}

// TestCloseWithoutRun: a Network built and Closed without ever running a
// program must tear down cleanly — the channel engine's parked goroutines
// may not have been scheduled yet when Close nils the start channels (a
// -race catch for the engine teardown path).
func TestCloseWithoutRun(t *testing.T) {
	for _, engine := range engines {
		for i := 0; i < 20; i++ {
			nw, err := network.New(graph.Cycle(48), network.Options{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			nw.Close()
		}
	}
}

// TestChannelsRunSpawnsNoGoroutines pins the other half of the tentpole
// contract directly: the channels engine's node goroutines are spawned by
// New and parked between runs, so RunProgram on a warm Network leaves the
// process goroutine count unchanged, and Close releases all of them.
func TestChannelsRunSpawnsNoGoroutines(t *testing.T) {
	// Goroutines from earlier tests' Closed networks exit asynchronously,
	// so absolute counts are noisy; the assertions below are one-sided
	// (spawned at least n on New, never grew across runs, shrank by at
	// least n after Close).
	g := graph.Cycle(32)
	before := runtime.NumGoroutine()
	nw, err := network.New(g, network.Options{Engine: network.EngineChannels})
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if after < before+g.N() {
		t.Fatalf("New spawned %d goroutines; want at least %d (one per node)", after-before, g.N())
	}
	prog := &core.Tester{K: 5, Reps: 2}
	for seed := uint64(0); seed < 8; seed++ {
		if _, err := nw.RunProgram(prog, seed); err != nil {
			t.Fatal(err)
		}
		// Allow slack for unrelated runtime goroutines (GC workers etc.);
		// a per-run engine spawn would add g.N() at once, and a leak of
		// parked goroutines would accumulate across the 8 runs. The
		// zero-allocation lock in TestNetworkRunAllocFree catches even
		// transient per-run spawns (a goroutine closure allocates).
		if now := runtime.NumGoroutine(); now > after+g.N()/2 {
			t.Fatalf("RunProgram grew the goroutine count: %d -> %d", after, now)
		}
	}
	peak := runtime.NumGoroutine()
	nw.Close()
	// The parked goroutines exit asynchronously on Close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= peak-g.N() {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("Close left goroutines behind: %d, had %d before Close", runtime.NumGoroutine(), peak)
}
