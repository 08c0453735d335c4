// Concurrent-instances tests for the Compiled/Instance split: N goroutines
// each attach their own Instance to ONE shared Compiled and must produce
// results byte-identical to sequential fresh runs. Run under -race (the CI
// race job) these also prove the compiled core is never written after
// Compile.
package network_test

import (
	"reflect"
	"sync"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// sequentialWant collects fresh one-shot results for every seed. Each
// runOnce builds its own single-use network, so the returned
// Results are independent of each other and of any shared Compiled.
func sequentialWant(t *testing.T, g *graph.Graph, k int, reps int, seeds []uint64) map[uint64]*network.Result {
	t.Helper()
	want := make(map[uint64]*network.Result, len(seeds))
	for _, seed := range seeds {
		res, err := runOnce(g, &core.Tester{K: k, Reps: reps}, network.Options{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}
	return want
}

// TestConcurrentInstancesMatchSequential is the concurrency contract of
// the serving layer: N goroutines running distinct seeds over one shared
// Compiled (one Instance each) produce verdicts and stats byte-identical
// to sequential fresh runs. Comparisons happen inside
// the goroutines, before an instance's next run overwrites its Result.
func TestConcurrentInstancesMatchSequential(t *testing.T) {
	rng := xrand.New(21)
	g := graph.ConnectedGNM(48, 4*48, rng)
	const k, reps, goroutines, seedsN = 5, 2, 4, 16
	seeds := make([]uint64, seedsN)
	for i := range seeds {
		seeds[i] = uint64(i)
	}

	t.Run(engineName, func(t *testing.T) {
		want := sequentialWant(t, g, k, reps, seeds)
		compiled, err := network.Compile(g, network.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				inst, err := compiled.NewInstance(network.InstanceOptions{Workers: 1})
				if err != nil {
					t.Error(err)
					return
				}
				defer inst.Close()
				prog := &core.Tester{K: k, Reps: reps}
				for i := w; i < len(seeds); i += goroutines {
					seed := seeds[i]
					got, err := inst.RunProgram(prog, seed)
					if err != nil {
						t.Errorf("seed %d: %v", seed, err)
						return
					}
					if !reflect.DeepEqual(want[seed].Outputs, got.Outputs) {
						t.Errorf("seed %d: outputs differ from sequential fresh run", seed)
					}
					if !reflect.DeepEqual(want[seed].Stats, got.Stats) {
						t.Errorf("seed %d: stats differ from sequential fresh run", seed)
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// TestInstanceCloseLeavesCompiledUsable: closing one instance must not
// disturb siblings or prevent attaching new ones — the serving layer
// closes pooled instances on LRU eviction while queries are in flight.
func TestInstanceCloseLeavesCompiledUsable(t *testing.T) {
	g := graph.Cycle(9)
	compiled, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog := &core.Tester{K: 9, Reps: 2}
	want, err := runOnce(g, &core.Tester{K: 9, Reps: 2}, network.Options{}, 7)
	if err != nil {
		t.Fatal(err)
	}

	a, err := compiled.NewInstance(network.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compiled.NewInstance(network.InstanceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Close() // evicted while b lives

	got, err := b.RunProgram(prog, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Fatal("surviving instance diverged after sibling Close")
	}
	b.Close()

	c, err := compiled.NewInstance(network.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err = c.RunProgram(prog, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Fatal("fresh instance on a used Compiled diverged")
	}
}
