package cycledetect

// One benchmark per reproduced table/figure (E1–E12, indexed in README
// "Experiments (E1–E12)"), plus micro-benchmarks of the hot paths. Each
// experiment benchmark runs the corresponding harness experiment in quick
// mode and aborts on claim violations, so `go test -bench=.` doubles as a
// reproduction run.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cycledetect/internal/bench"
	"cycledetect/internal/central"
	"cycledetect/internal/combin"
	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
	"cycledetect/internal/xrand"
)

// runOnce runs p once on a fresh single-use network, paying topology,
// engine, node and RNG setup every time.
func runOnce(g *graph.Graph, p network.Program, opts network.Options, seed uint64) (*network.Result, error) {
	nw, err := network.New(g, opts)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	return nw.RunProgram(p, seed)
}

func benchExperiment(b *testing.B, run func(bench.Config) *bench.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl := run(bench.Config{Seed: uint64(i + 1), Quick: true})
		if tbl.Violations != 0 {
			b.Fatalf("claim violations:\n%s", tbl.Format())
		}
	}
}

func BenchmarkE1RoundComplexity(b *testing.B) { benchExperiment(b, bench.RunE1) }
func BenchmarkE2MessageBound(b *testing.B)    { benchExperiment(b, bench.RunE2) }
func BenchmarkE3OneSided(b *testing.B)        { benchExperiment(b, bench.RunE3) }
func BenchmarkE4Detection(b *testing.B)       { benchExperiment(b, bench.RunE4) }
func BenchmarkE5RankCollision(b *testing.B)   { benchExperiment(b, bench.RunE5) }
func BenchmarkE6Packing(b *testing.B)         { benchExperiment(b, bench.RunE6) }
func BenchmarkE7Fig1Trace(b *testing.B)       { benchExperiment(b, bench.RunE7) }
func BenchmarkE8PruningAblation(b *testing.B) { benchExperiment(b, bench.RunE8) }
func BenchmarkE9SingleCycle(b *testing.B)     { benchExperiment(b, bench.RunE9) }
func BenchmarkE10Bandwidth(b *testing.B)      { benchExperiment(b, bench.RunE10) }
func BenchmarkE11Comparison(b *testing.B)     { benchExperiment(b, bench.RunE11) }
func BenchmarkE12RoundProfile(b *testing.B)   { benchExperiment(b, bench.RunE12) }

// BenchmarkTesterByK measures one full repetition of the tester across k on
// a fixed 256-node network — the per-repetition cost that Theorem 1
// multiplies by ⌈(e²/ε)ln3⌉.
func BenchmarkTesterByK(b *testing.B) {
	rng := xrand.New(1)
	g := graph.ConnectedGNM(256, 1024, rng)
	for _, k := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := &core.Tester{K: k, Reps: 1}
				if _, err := runOnce(g, prog, network.Options{}, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTesterWarmByK is BenchmarkTesterByK's repetition on a warm
// instance: the nodes, arenas and engine tables are built and grown before
// the timer starts, so an op is one reused-node repetition and allocates
// nothing. Next to the fresh rows it separates the per-repetition cost from
// the setup cost.
func BenchmarkTesterWarmByK(b *testing.B) {
	rng := xrand.New(1)
	g := graph.ConnectedGNM(256, 1024, rng)
	for _, k := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			nw, err := network.New(g, network.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			prog := &core.Tester{K: k, Reps: 1}
			const warm = 16
			for s := uint64(0); s < warm; s++ {
				if _, err := nw.RunProgram(prog, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.RunProgram(prog, warm+uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTesterRunWarm is one full ε = 0.1 tester run per op (82
// repetitions, the shape of a served query) on a warm instance of
// BenchmarkTesterByK's graph. Unlike the single-repetition rows, it has
// nodes that rejected in an earlier repetition of the same run, so it
// prices what a rejected node still does. 0 allocs/op.
func BenchmarkTesterRunWarm(b *testing.B) {
	rng := xrand.New(1)
	g := graph.ConnectedGNM(256, 1024, rng)
	for _, k := range []int{7, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			nw, err := network.New(g, network.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer nw.Close()
			prog := &core.Tester{K: k, Eps: 0.1}
			const warm = 2
			for s := uint64(0); s < warm; s++ {
				if _, err := nw.RunProgram(prog, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.RunProgram(prog, warm+uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginesCompare times fresh single-use tester runs on a 128-node
// graph. Its one row keeps the name "bsp" so the snapshot trajectory from
// BENCH_1.json continues.
func BenchmarkEnginesCompare(b *testing.B) {
	rng := xrand.New(2)
	g := graph.ConnectedGNM(128, 512, rng)
	prog := &core.Tester{K: 6, Reps: 2}
	b.Run("bsp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runOnce(g, prog, network.Options{}, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNetworkReuse is the sweep-workload benchmark behind the
// internal/network subsystem: 100 single-repetition tester runs (different
// seeds) on one 256-node G(n,4n) graph, executed on a fresh single-use
// network per repetition (runOnce) versus on one reused Network with a
// cached Program. Both paths are verified to produce identical decisions
// and stats before timing. The reused path must be ≥5× cheaper in
// allocs/op (it is ~0 per repetition in steady state; see
// TestNetworkRunAllocFree).
func BenchmarkNetworkReuse(b *testing.B) {
	rng := xrand.New(10)
	g := graph.ConnectedGNM(256, 1024, rng)
	const reps = 100
	const k = 7

	nw, err := network.New(g, network.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()

	// Cross-check: every seed's decision and stats must match between the
	// fresh-run and reused-network paths.
	checkProg := &core.Tester{K: k, Reps: 1}
	for s := uint64(0); s < reps; s++ {
		want, err := runOnce(g, &core.Tester{K: k, Reps: 1}, network.Options{}, s)
		if err != nil {
			b.Fatal(err)
		}
		got, err := nw.RunProgram(checkProg, s)
		if err != nil {
			b.Fatal(err)
		}
		wd, gd := core.Summarize(want.Outputs, want.IDs), core.Summarize(got.Outputs, got.IDs)
		if wd.Reject != gd.Reject || !reflect.DeepEqual(want.Stats, got.Stats) {
			b.Fatalf("seed %d: reused network diverged from a fresh run", s)
		}
	}

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := uint64(0); s < reps; s++ {
				prog := &core.Tester{K: k, Reps: 1}
				if _, err := runOnce(g, prog, network.Options{}, s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		// checkProg's nodes were built by the cross-check above. A new
		// Program value here would rebuild them inside the timed loop, and
		// that one-off build divided by b.N would make allocs/op depend on
		// the b.N the host's speed picks.
		for i := 0; i < b.N; i++ {
			for s := uint64(0); s < reps; s++ {
				if _, err := nw.RunProgram(checkProg, s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// cancelAtProg cancels its own run context from node 0's Send in round 1,
// so BenchmarkCancelLatency measures the abort path in isolation.
type cancelAtProg struct {
	rounds int
	cancel context.CancelFunc
}

func (p *cancelAtProg) Rounds(n, m int) int { return p.rounds }
func (p *cancelAtProg) NewNode(info network.NodeInfo) network.Node {
	return &cancelAtNode{p: p, id: info.ID}
}

type cancelAtNode struct {
	p  *cancelAtProg
	id network.ID
}

func (cn *cancelAtNode) Send(round int, out [][]byte) {
	if cn.id == 0 && round == 1 {
		cn.p.cancel()
	}
}
func (cn *cancelAtNode) Receive(int, [][]byte) {}
func (cn *cancelAtNode) Output() any           { return nil }

// BenchmarkCancelLatency is the rounds-to-abort benchmark: the program
// cancels its own context in round 1 of a 4096-round run, so each
// iteration prices the whole abort path — round-barrier detection,
// failure-state bookkeeping, and the node rebuild the next run pays — and
// NOT 4095 burned rounds. The rounds-over-cancel metric reports how many
// rounds past the trigger the engine executed before stopping, and every
// iteration HARD-ASSERTS the one-round abort contract. The row keeps the
// name "bsp" so the snapshot trajectory continues.
func BenchmarkCancelLatency(b *testing.B) {
	rng := xrand.New(11)
	g := graph.ConnectedGNM(256, 1024, rng)
	b.Run("bsp", func(b *testing.B) {
		nw, err := network.New(g, network.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer nw.Close()
		prog := &cancelAtProg{rounds: 4096}
		run := func(seed uint64) *network.ErrCanceled {
			ctx, cancel := context.WithCancel(context.Background())
			prog.cancel = cancel
			_, err := nw.RunProgramCtx(ctx, prog, seed)
			cancel()
			var ce *network.ErrCanceled
			if !errors.As(err, &ce) {
				b.Fatalf("want ErrCanceled, got %v", err)
			}
			return ce
		}
		run(0) // warm the per-run slabs sized by the round count
		var over float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ce := run(uint64(i) + 1)
			if ce.Round-1 > 1 {
				b.Fatalf("aborted %d rounds past the trigger; contract allows 1", ce.Round-1)
			}
			over += float64(ce.Round - 1)
		}
		b.ReportMetric(over/float64(b.N), "rounds-over-cancel")
	})
}

// BenchmarkCancelOverhead prices the cancellation hook on the steady-state
// round loop: the same warm reused tester run with a never-cancellable
// context (the polls compile away) versus a LIVE cancellable context (one
// channel poll per round). Both variants must stay 0 allocs/op — the
// acceptance bar the alloc tests pin and the bench gate enforces across
// snapshots. The rows keep their "-bsp" suffix so the snapshot trajectory
// continues.
func BenchmarkCancelOverhead(b *testing.B) {
	rng := xrand.New(12)
	g := graph.RandomTree(256, rng) // accepting workload: 0-alloc steady state
	const k, reps = 7, 8
	nw, err := network.New(g, network.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	prog := &core.Tester{K: k, Reps: reps}
	for s := uint64(0); s < 3; s++ { // warm arenas and the node cache
		if _, err := nw.RunProgram(prog, s); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("background-bsp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nw.RunProgram(prog, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("armed-bsp", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := nw.RunProgramCtx(ctx, prog, 0); err != nil {
			b.Fatal(err) // warm ctx.Done's lazily allocated channel
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nw.RunProgramCtx(ctx, prog, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPruning measures the representative-selection hot path at the
// worst realistic fan-in.
func BenchmarkPruning(b *testing.B) {
	rng := xrand.New(3)
	for _, cfg := range []struct{ lists, p, q int }{
		{32, 2, 4}, {128, 3, 4}, {512, 3, 5},
	} {
		name := fmt.Sprintf("lists=%d_p=%d_q=%d", cfg.lists, cfg.p, cfg.q)
		lists := make([][]int64, cfg.lists)
		for i := range lists {
			seen := map[int64]bool{}
			for len(lists[i]) < cfg.p {
				x := int64(rng.Intn(64))
				if !seen[x] {
					seen[x] = true
					lists[i] = append(lists[i], x)
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				combin.Representatives(lists, cfg.q)
			}
		})
	}
}

// BenchmarkWireCodec measures message encode/decode throughput.
func BenchmarkWireCodec(b *testing.B) {
	c := &wire.Check{U: 12345, V: 67890, Rank: 1 << 40}
	for i := 0; i < 16; i++ {
		c.Seqs = append(c.Seqs, []int64{int64(i), int64(i * 31), int64(i * 1024), int64(i * 65536)})
	}
	payload := wire.EncodeCheck(c)
	b.Run("encode", func(b *testing.B) {
		b.ReportMetric(float64(len(payload)), "bytes/msg")
		for i := 0; i < b.N; i++ {
			wire.EncodeCheck(c)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeCheck(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCentralOracle measures the ground-truth oracle used by the test
// suite, for scale context.
func BenchmarkCentralOracle(b *testing.B) {
	rng := xrand.New(4)
	g := graph.ConnectedGNM(64, 192, rng)
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("FindCk_k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				central.FindCk(g, k)
			}
		})
	}
}

// BenchmarkGraphGen measures generator throughput (the experiment harness's
// fixed cost).
func BenchmarkGraphGen(b *testing.B) {
	b.Run("ConnectedGNM_1k", func(b *testing.B) {
		rng := xrand.New(5)
		for i := 0; i < b.N; i++ {
			graph.ConnectedGNM(1000, 4000, rng)
		}
	})
	b.Run("FarFromCkFree", func(b *testing.B) {
		rng := xrand.New(6)
		for i := 0; i < b.N; i++ {
			graph.FarFromCkFree(300, 5, 0.05, rng)
		}
	})
}

// BenchmarkPublicAPI measures the end-to-end public entry point.
func BenchmarkPublicAPI(b *testing.B) {
	g := NewGraph(64)
	rng := xrand.New(7)
	inner := graph.ConnectedGNM(64, 200, rng)
	for _, e := range inner.Edges() {
		if err := g.AddEdge(e.U, e.V); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := Test(g, Options{K: 5, Epsilon: 0.2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrunerVsBrute is the pruning ablation: the bounded hitting-set
// search Representatives uses versus the paper-literal 𝒳-materializing
// greedy (RepresentativesBrute) on identical inputs (small enough that the
// brute force terminates).
func BenchmarkPrunerVsBrute(b *testing.B) {
	rng := xrand.New(8)
	lists := make([][]int64, 24)
	for i := range lists {
		seen := map[int64]bool{}
		for len(lists[i]) < 2 {
			x := int64(rng.Intn(8))
			if !seen[x] {
				seen[x] = true
				lists[i] = append(lists[i], x)
			}
		}
	}
	const q = 3
	b.Run("hitting-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combin.Representatives(lists, q)
		}
	})
	b.Run("paper-literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combin.RepresentativesBrute(lists, q)
		}
	})
}

// BenchmarkTriangleBaseline measures the k=3 predecessor [7]: O(1/ε²)
// repetitions of 1-ID probes.
func BenchmarkTriangleBaseline(b *testing.B) {
	rng := xrand.New(9)
	g, _ := graph.FarFromCkFree(120, 3, 0.1, rng)
	for i := 0; i < b.N; i++ {
		prog := &core.TriangleTester{Eps: 0.1}
		if _, err := runOnce(g, prog, network.Options{}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
