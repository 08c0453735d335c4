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

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// engineName names the subtest each engine-running test runs in: the
// lockstep engine, network.EngineBSP, the only one. Keeping the subtest
// level keeps test names comparable with results recorded while the
// package had a second engine.
const engineName = string(network.EngineBSP)

// runOnce is the single-use reference run: a fresh Instance, one program,
// Close. The Result stays valid after Close (only the worker goroutines are
// released), and nothing else holds the Instance, so the caller owns it.
func runOnce(g *graph.Graph, p network.Program, opts network.Options, seed uint64) (*network.Result, error) {
	nw, err := network.New(g, opts)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	return nw.RunProgram(p, seed)
}

// testGraphs returns the reuse-equivalence fixtures: an accepting
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
// every graph, program, and seed — including runs late in the Network's
// life, after many node reuses with different seeds.
func TestRunProgramMatchesCongest(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name+"/"+engineName, func(t *testing.T) {
			nw, err := network.New(g, network.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			// One Program value reused across seeds: the node-cache path.
			prog := &core.Tester{K: 5, Reps: 2}
			for seed := uint64(0); seed < 6; seed++ {
				want, err := runOnce(g, &core.Tester{K: 5, Reps: 2}, network.Options{}, seed)
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
			want, err := runOnce(g, &core.Tester{K: 6, Reps: 2}, network.Options{}, 11)
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
	nw, err := network.New(g, network.Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for seed := uint64(0); seed < 3; seed++ {
		want, err := runOnce(g, &core.EdgeDetector{K: 6, U: ids[e.U], V: ids[e.V]}, network.Options{IDs: ids}, seed)
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
// with the same Program value must not allocate at all; a per-run
// goroutine spawn would show up as an allocation too. The graph is Ck-free
// so no run ever assembles a witness (witness assembly is allowed to
// allocate — rejection ends a workload).
func TestNetworkRunAllocFree(t *testing.T) {
	rng := xrand.New(5)
	g := graph.RandomTree(64, rng)
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{})
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

// resetOnly is a program whose nodes do nothing but implement
// ReusableNode. No other test runs its node type.
type resetOnly struct{}

func (resetOnly) Rounds(n, m int) int                   { return 1 }
func (resetOnly) NewNode(network.NodeInfo) network.Node { return &resetOnlyNode{} }

type resetOnlyNode struct{}

func (*resetOnlyNode) Send(int, [][]byte)     {}
func (*resetOnlyNode) Receive(int, [][]byte)  {}
func (*resetOnlyNode) Output() any            { return nil }
func (*resetOnlyNode) Reset(network.NodeInfo) {}

// TestWarmResetMakesNoTypeAssertion: warm runs reset their cached nodes
// without an interface type assertion per node. Until an assertion's
// call-site cache holds a dynamic type, the runtime adds it at random, on
// about one call in 1024, with a heap allocation. So 2^15 resets of a node
// type that site has not seen would allocate with probability 1 - e^-32;
// the 4 assertions a first warm run may make fill it first with
// probability 0.4%. The count comes from the heap profile, from stacks
// through the run's prepare step alone.
func TestWarmResetMakesNoTypeAssertion(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	nw, err := network.New(graph.Cycle(4), network.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	prog := resetOnly{}
	run := func(seed uint64) {
		if _, err := nw.RunProgram(prog, seed); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // builds the nodes
	run(1) // the first warm run lists them for reuse
	before := prepareAllocs()
	const runs = 1 << 13
	for seed := uint64(2); seed < 2+runs; seed++ {
		run(seed)
	}
	if got := prepareAllocs() - before; got != 0 {
		t.Fatalf("%d warm runs of 4 nodes made %d allocations in prepare; want 0", runs, got)
	}
}

// prepareAllocs returns the heap allocations made so far whose stack passes
// through Instance.prepare, after the collections that publish them.
func prepareAllocs() int64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "cycledetect/internal/network.(*Instance).prepare" {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestCloseWithoutRun: a Network built and Closed without ever running a
// program must tear down cleanly — the pool's parked workers may not have
// been scheduled yet when Close closes their start channels (a -race catch
// for the engine teardown path).
func TestCloseWithoutRun(t *testing.T) {
	for i := 0; i < 20; i++ {
		nw, err := network.New(graph.Cycle(48), network.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		nw.Close()
	}
}
