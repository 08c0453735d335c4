package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
	"cycledetect/internal/xrand"
)

// lockstep drives a Program's nodes through a minimal hand-rolled copy of
// the engine's delivery loop — no engine, no per-run setup — so per-node
// state stays inspectable and a measurement isolates the nodes' own
// message path. Vertex v has ID v.
type lockstep struct {
	g       *graph.Graph
	nodes   []network.Node
	revPort [][]int // revPort[v][p]: the port of v on the neighbor reached via v's port p
	out, in [][][]byte
}

func newLockstep(g *graph.Graph, prog network.Program, seed uint64) *lockstep {
	n := g.N()
	ls := &lockstep{
		g:       g,
		nodes:   make([]network.Node, n),
		revPort: make([][]int, n),
		out:     make([][][]byte, n),
		in:      make([][][]byte, n),
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(v)
		nbr := make([]ID, len(ns))
		ls.revPort[v] = make([]int, len(ns))
		for p, w := range ns {
			nbr[p] = ID(w)
			for q, x := range g.Neighbors(int(w)) {
				if int(x) == v {
					ls.revPort[v][p] = q
				}
			}
		}
		ls.nodes[v] = prog.NewNode(network.NodeInfo{
			ID: ID(v), N: n, NeighborIDs: nbr,
			Rand: xrand.Stream(seed, uint64(v)),
		})
		ls.out[v] = make([][]byte, len(ns))
		ls.in[v] = make([][]byte, len(ns))
	}
	return ls
}

// round runs round r: every node's Send, then afterSend (when non-nil),
// then delivery along the reverse ports, then every node's Receive.
func (ls *lockstep) round(r int, afterSend func()) {
	for v, nd := range ls.nodes {
		clear(ls.out[v])
		nd.Send(r, ls.out[v])
	}
	if afterSend != nil {
		afterSend()
	}
	for v := range ls.nodes {
		for p, w := range ls.g.Neighbors(v) {
			ls.in[w][ls.revPort[v][p]] = ls.out[v][p]
		}
	}
	for v, nd := range ls.nodes {
		nd.Receive(r, ls.in[v])
		clear(ls.in[v])
	}
}

// runLockstep runs prog to completion in the lockstep harness and returns
// every node's Output plus the run's message count and bit volume, counted
// after each Send phase.
func runLockstep(g *graph.Graph, prog network.Program, seed uint64) (outs []any, msgs, bits int64) {
	ls := newLockstep(g, prog, seed)
	count := func() {
		for _, out := range ls.out {
			for _, payload := range out {
				if payload != nil {
					msgs++
					bits += 8 * int64(len(payload))
				}
			}
		}
	}
	for r := 1; r <= prog.Rounds(g.N(), g.M()); r++ {
		ls.round(r, count)
	}
	outs = make([]any, g.N())
	for v, nd := range ls.nodes {
		outs[v] = nd.Output()
	}
	return outs, msgs, bits
}

// assertMatchesLockstep runs prog on a sharded engine instance and in the
// lockstep harness, an independently written delivery loop, and demands
// identical per-node outputs and traffic totals.
func assertMatchesLockstep(t *testing.T, g *graph.Graph, prog network.Program, seed uint64) {
	t.Helper()
	res, err := runOnce(g, prog, network.Options{Workers: 4}, seed)
	if err != nil {
		t.Fatal(err)
	}
	outs, msgs, bits := runLockstep(g, prog, seed)
	for v := range outs {
		if !reflect.DeepEqual(res.Outputs[v], outs[v]) {
			t.Fatalf("seed %d: node %d output differs from the lockstep harness:\n engine   %+v\n lockstep %+v",
				seed, v, res.Outputs[v], outs[v])
		}
	}
	if res.Stats.MessagesSent != msgs || res.Stats.TotalBits != bits {
		t.Fatalf("seed %d: traffic differs from the lockstep harness: engine %d msgs / %d bits, lockstep %d / %d",
			seed, res.Stats.MessagesSent, res.Stats.TotalBits, msgs, bits)
	}
}

// Allocation regression: once a tester node's buffers are warm, a full
// repetition (Phase-1 rank round plus every Phase-2 round) must perform
// zero heap allocations on every node. The nodes run in a lockstep harness,
// so the measurement isolates exactly the steady-state message path that
// the zero-allocation rework pays for. The count is the raw total over 20
// repetitions, from the heap profile (see TestTesterWarmAllocFree).
func TestTesterSteadyStateRoundAllocFree(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// C6 plus the chord {0,3}: cycles of length 6 and 4 but no C5, so k=5
	// generates full two-phase traffic without ever assembling a witness
	// (witness assembly is allowed to allocate — rejection ends a run).
	b := graph.NewBuilder(6)
	b.AddCycle(0, 1, 2, 3, 4, 5)
	b.AddEdge(0, 3)
	g := b.Build()

	prog := &Tester{K: 5, Reps: 1 << 20}
	ls := newLockstep(g, prog, 7)
	round := 0
	step := func() {
		round++
		ls.round(round, nil)
	}

	per := prog.RoundsPerRep()
	for i := 0; i < 5*per; i++ {
		step() // warm every buffer through five repetitions
	}
	const reps = 20
	before := programAllocs()
	for i := 0; i < reps*per; i++ {
		step()
	}
	if allocs, where := programAllocs().since(before); allocs != 0 {
		t.Fatalf("%d steady-state repetitions made %d allocations; want 0. Stacks whose count rose:\n%s", reps, allocs, where)
	}
}

// TestTesterWarmAllocFree: once a Tester instance on BenchmarkTesterByK's
// graph has run 16 seeds, the next 256 seeds allocate nothing, at every k.
// New seeds reach new arena high-water marks and bring nodes their first
// detection, which the prealloc reservation must cover. The count is the
// raw total over all 256 runs (testing.AllocsPerRun divides it by the run
// count and would round a few stray growths down to 0), taken from the
// heap profile so that it holds only the program's allocations: a
// process-wide counter also sees the runtime's own, such as a timer heap
// growing on a runtime goroutine.
func TestTesterWarmAllocFree(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := graph.ConnectedGNM(256, 1024, xrand.New(1))
	for _, k := range []int{3, 5, 7, 9} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			nw, err := network.New(g, network.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			prog := &Tester{K: k, Reps: 1}
			const warm, runs = 16, 256
			run := func(seed uint64) {
				if _, err := nw.RunProgram(prog, seed); err != nil {
					t.Fatal(err)
				}
			}
			for s := uint64(0); s < warm; s++ {
				run(s)
			}
			before := programAllocs()
			for s := uint64(warm); s < warm+runs; s++ {
				run(s)
			}
			if allocs, where := programAllocs().since(before); allocs != 0 {
				t.Fatalf("%d warm runs made %d allocations; want 0. Stacks whose count rose:\n%s", runs, allocs, where)
			}
		})
	}
}

// randomRankPort draws one port of a Phase-1 round: an honest rank, an
// empty port, a payload of another kind (check is the port's Phase-2
// payload), or a damaged rank: cut short, overlong, past 64 bits, or
// followed by a trailing byte.
func randomRankPort(rng *xrand.RNG, check []byte) []byte {
	r := wire.EncodeRank(wire.Rank{Rank: 1 + rng.Uint64n(1<<40)})
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return check
	case 2:
		return wire.EncodeProbe(wire.Probe{Node: ID(rng.Intn(24))})
	case 3:
		return r[:1+rng.Intn(len(r)-1)]
	case 4:
		return append(r[:len(r)-1:len(r)-1], r[len(r)-1]|0x80, 0)
	case 5:
		return []byte{wire.KindRank, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	case 6:
		return append(r, byte(rng.Intn(256)))
	}
	return r
}

// TestDamagedTrafficAllocFree: a warm tester node drops damaged traffic
// without allocating. Each of 4,000 randomized cases is one Phase-1 receive
// of randomRankPort's ports and one Phase-2 receive of randomReceiveCase's
// (about a third of its checks are damaged), on a node reused through
// Reset. The traffic is drawn before the count, a first pass takes every
// buffer to its high-water mark, and the second pass must make no heap
// allocation at all (counted as in TestTesterWarmAllocFree).
func TestDamagedTrafficAllocFree(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const trials = 4000
	for _, k := range []int{5, 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			prog := &Tester{K: k, Reps: 1}
			rng := xrand.New(uint64(80 + k))
			cases := make([]*receiveCase, trials)
			ranks := make([][][]byte, trials)
			damaged := 0
			for i := range cases {
				rc := randomReceiveCase(rng, k, 0)
				cases[i], ranks[i] = rc, make([][]byte, len(rc.in))
				for p, payload := range rc.in {
					ranks[i][p] = randomRankPort(rng, payload)
					if v, err := wire.ParseCheck(payload); wire.Kind(payload) == wire.KindCheck &&
						(err != nil || v.Validate() != nil) {
						damaged++
					}
				}
			}
			if damaged < trials/4 {
				t.Fatalf("only %d damaged checks in %d cases", damaged, trials)
			}
			nodes := map[int]*testerNode{} // by degree
			pass := func() {
				for i, rc := range cases {
					info := network.NodeInfo{ID: rc.myid, N: 64, NeighborIDs: rc.nbrs}
					n := nodes[len(rc.nbrs)]
					if n == nil {
						n = prog.NewNode(info).(*testerNode)
						nodes[len(rc.nbrs)] = n
					}
					n.Reset(info)
					n.Receive(1, ranks[i])
					rc.prime(n)
					n.receiveChecks(rc.local, rc.in)
				}
			}
			pass()
			before := programAllocs()
			pass()
			if allocs, where := programAllocs().since(before); allocs != 0 {
				t.Fatalf("%d warm receives of damaged traffic made %d allocations; want 0. Stacks whose count rose:\n%s",
					trials, allocs, where)
			}
		})
	}
}

// allocSites counts heap allocations by the stack that made them.
type allocSites map[[32]uintptr]int64

// programAllocs returns the heap allocations made so far whose stack passes
// through the program's non-test code, counted per stack. Every allocation
// is in the heap profile while runtime.MemProfileRate is 1, and three
// collections publish the latest ones.
func programAllocs() allocSites {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("heap profile grew past its slack")
	}
	sites := allocSites{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "cycledetect/") && !strings.HasSuffix(f.File, "_test.go") {
				sites[r.Stack0] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return sites
}

// since returns how many allocations were made after before, and each stack
// whose count rose, one frame (function, then file:line) per line.
func (after allocSites) since(before allocSites) (int64, string) {
	var total int64
	var b strings.Builder
	for stk, n := range after {
		d := n - before[stk]
		if d == 0 {
			continue
		}
		total += d
		fmt.Fprintf(&b, "%d allocations at:\n", d)
		r := runtime.MemProfileRecord{Stack0: stk}
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
	}
	return total, b.String()
}
