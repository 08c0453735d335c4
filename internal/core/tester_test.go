package core

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/ptest"
	"cycledetect/internal/xrand"
)

// runOnce runs p once on a fresh single-use network. The Result stays
// valid after Close (only the engine goroutines are released).
func runOnce(g *graph.Graph, p network.Program, opts network.Options, seed uint64) (*network.Result, error) {
	nw, err := network.New(g, opts)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	return nw.RunProgram(p, seed)
}

func runTester(t *testing.T, g *graph.Graph, prog *Tester, seed uint64) Decision {
	t.Helper()
	res, err := runOnce(g, prog, network.Options{}, seed)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return Summarize(res.Outputs, res.IDs)
}

// TestTesterOneSided is the hard guarantee of Theorem 1: on Ck-free graphs
// the tester NEVER rejects, over many seeds and many graph families.
func TestTesterOneSided(t *testing.T) {
	families := map[string]*graph.Graph{
		"tree":      graph.RandomTree(40, xrand.New(1)),
		"path":      graph.Path(30),
		"star":      graph.Star(25),
		"grid":      graph.Grid(5, 6),    // girth 4: C4-free? no — grids have C4; C4-free only for odd k... see below
		"hypercube": graph.Hypercube(4),  // bipartite, girth 4
		"c12":       graph.Cycle(12),     // only C12
		"barbell":   graph.Barbell(4, 3), // cliques of size 4: no Ck for k>4 except via bridge? bridge is a path, so cycles only inside cliques (3,4)
		"K5":        graph.Complete(5),   // cycles 3,4,5 only
	}
	type negCase struct {
		g *graph.Graph
		k int
	}
	var cases []negCase
	// For each family pick ks where the graph is verifiably Ck-free.
	for _, g := range families {
		for k := 3; k <= 8; k++ {
			if !central.HasCk(g, k) {
				cases = append(cases, negCase{g, k})
			}
		}
	}
	if len(cases) < 10 {
		t.Fatalf("test setup: expected many Ck-free cases, got %d", len(cases))
	}
	for _, c := range cases {
		for seed := uint64(0); seed < 8; seed++ {
			prog := &Tester{K: c.k, Reps: 5}
			dec := runTester(t, c.g, prog, seed)
			if dec.Reject {
				t.Fatalf("false reject: k=%d seed=%d witness=%v", c.k, seed, dec.Witness)
			}
		}
	}
}

// TestTesterWitnessAlwaysReal verifies 1-sidedness from the other side: on
// graphs WITH k-cycles, any reject must come with a genuine witness cycle.
func TestTesterWitnessAlwaysReal(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.Intn(10)
		g := graph.ConnectedGNM(n, n+rng.Intn(2*n), rng)
		for k := 3; k <= 7; k++ {
			prog := &Tester{K: k, Reps: 4}
			res, err := runOnce(g, prog, network.Options{}, uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			dec := Summarize(res.Outputs, res.IDs)
			if !dec.Reject {
				continue
			}
			if !central.HasCk(g, k) {
				t.Fatalf("trial=%d k=%d: rejected a Ck-free graph", trial, k)
			}
			verifyWitness(t, g, k, graph.Edge{U: int(dec.Witness[0]), V: int(dec.Witness[len(dec.Witness)-1])}, dec.Witness)
		}
	}
}

// TestTesterDetectsFarInstances checks the headline 2/3 guarantee: on
// certified ε-far instances, the fully-amplified tester rejects in at least
// 2/3 of independent runs (empirically it is far higher because the ε/e²
// per-repetition bound is loose).
func TestTesterDetectsFarInstances(t *testing.T) {
	rng := xrand.New(99)
	for _, k := range []int{3, 4, 5, 6} {
		eps := 0.08
		g, q := graph.FarFromCkFree(60, k, eps, rng)
		if float64(q) <= eps*float64(g.M()) {
			t.Fatalf("k=%d: generator returned a non-far instance", k)
		}
		prog := &Tester{K: k, Eps: eps}
		trials, rejects := 12, 0
		for s := 0; s < trials; s++ {
			if runTester(t, g, prog, uint64(1000+s)).Reject {
				rejects++
			}
		}
		if 3*rejects < 2*trials {
			t.Fatalf("k=%d: rejected %d/%d < 2/3 on an ε-far instance", k, rejects, trials)
		}
	}
}

// TestTesterPerRepetitionRate checks Lemma 4+5's per-repetition success
// bound ε/e² empirically with Reps=1.
func TestTesterPerRepetitionRate(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	rng := xrand.New(7)
	k := 5
	eps := 0.05
	g, _ := graph.FarFromCkFree(50, k, eps, rng)
	trials, rejects := 400, 0
	for s := 0; s < trials; s++ {
		prog := &Tester{K: k, Reps: 1}
		if runTester(t, g, prog, uint64(s)).Reject {
			rejects++
		}
	}
	rate := float64(rejects) / float64(trials)
	lower := ptest.RepSuccessLowerBound(eps)
	if rate < lower {
		t.Fatalf("per-repetition rate %.4f below paper bound %.4f", rate, lower)
	}
}

// TestRankRange pins Phase 1's rank range: exactly n⁴ while that fits in
// uint64, saturated at MaxUint64 from n = 2^16 on, and never below n².
// Computing n⁴ in uint64 wraps to 0 at every multiple of 2^16, which
// collapsed the range to [1, 1].
func TestRankRange(t *testing.T) {
	for _, n := range []int{1, 2, 2048, 65535, 65536, 131072, 1 << 20} {
		nn := uint64(n)
		got := rankRange(n)
		if n < 1<<16 && got != nn*nn*nn*nn {
			t.Errorf("rankRange(%d) = %d, want n⁴ = %d", n, got, nn*nn*nn*nn)
		}
		if n >= 1<<16 && got != math.MaxUint64 {
			t.Errorf("rankRange(%d) = %d, want the saturated MaxUint64", n, got)
		}
		if got < nn*nn {
			t.Errorf("rankRange(%d) = %d, below n² = %d", n, got, nn*nn)
		}
	}
}

// TestTesterRoundsFormula checks the round complexity: reps*(1+⌊k/2⌋),
// independent of n and m — the O(1/ε) of Theorem 1.
func TestTesterRoundsFormula(t *testing.T) {
	for _, k := range []int{3, 4, 5, 8, 9} {
		for _, eps := range []float64{0.5, 0.2, 0.1, 0.05} {
			prog := &Tester{K: k, Eps: eps}
			wantReps := int(math.Ceil(math.E * math.E / eps * math.Log(3)))
			if got := prog.Repetitions(); got != wantReps {
				t.Fatalf("k=%d eps=%.2f: reps=%d want %d", k, eps, got, wantReps)
			}
			r1 := prog.Rounds(10, 20)
			r2 := prog.Rounds(100000, 300000)
			if r1 != r2 {
				t.Fatalf("rounds depend on n/m: %d vs %d", r1, r2)
			}
			if r1 != wantReps*(1+k/2) {
				t.Fatalf("rounds=%d want reps*(1+k/2)=%d", r1, wantReps*(1+k/2))
			}
		}
	}
}

// TestTesterBandwidth verifies the CONGEST bound under full concurrency:
// with every node running prioritized checks, the maximum message size stays
// within c_k·log2(n) bits for a k-dependent constant.
func TestTesterBandwidth(t *testing.T) {
	rng := xrand.New(31)
	for _, n := range []int{16, 64, 256} {
		g := graph.ConnectedGNM(n, 3*n, rng)
		for _, k := range []int{4, 6, 8} {
			prog := &Tester{K: k, Reps: 3}
			res, err := runOnce(g, prog, network.Options{}, 5)
			if err != nil {
				t.Fatal(err)
			}
			logn := math.Log2(float64(n))
			// Generous constant: bound sequences * ids-per-seq * bits-per-id
			// plus header. Lemma 3's worst round-t count is (k-t+1)^(t-1).
			worstSeqs := 0
			for tt := 1; tt <= k/2; tt++ {
				if b := int(paperBound(k, tt)); b > worstSeqs {
					worstSeqs = b
				}
			}
			budget := float64(worstSeqs*(k/2)+16) * (logn + 10)
			if float64(res.Stats.MaxMessageBits) > budget {
				t.Fatalf("n=%d k=%d: max message %d bits exceeds budget %.0f",
					n, k, res.Stats.MaxMessageBits, budget)
			}
		}
	}
}

// TestTesterMessageBoundUnderConcurrency: Lemma 3 must hold for every node
// even with many concurrent preempting checks.
func TestTesterMessageBoundUnderConcurrency(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(30)
		g := graph.ConnectedGNM(n, 2*n+rng.Intn(3*n), rng)
		for _, k := range []int{5, 6, 7, 8} {
			prog := &Tester{K: k, Reps: 2}
			dec := runTester(t, g, prog, uint64(trial))
			for tr, got := range dec.MaxSeqsPerRound {
				if uint64(got) > paperBound(k, tr+1) {
					t.Fatalf("k=%d round=%d: %d > bound %d", k, tr+1, got, paperBound(k, tr+1))
				}
			}
		}
	}
}

// TestTesterMatchesLockstep: with the same seed a sharded engine run and
// the lockstep harness must produce identical node outputs and traffic
// (determinism of the whole stack against a second delivery loop).
func TestTesterMatchesLockstep(t *testing.T) {
	rng := xrand.New(43)
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(15)
		g := graph.ConnectedGNM(n, n+rng.Intn(2*n), rng)
		for k := 3; k <= 7; k++ {
			assertMatchesLockstep(t, g, &Tester{K: k, Reps: 3}, uint64(trial))
		}
	}
}

// TestTesterSingleRepMinEdgePlanted: when the planted cycle's edge happens
// to get the unique minimum rank, the repetition must detect — we test the
// deterministic core of that claim by running many single repetitions and
// verifying every reject has a real witness and that detection occurs at
// least once (the graph is one big cycle, so EVERY edge lies on it and any
// unique-min repetition must fire).
func TestTesterSingleRepMinEdgePlanted(t *testing.T) {
	g := graph.Cycle(9)
	k := 9
	fired := 0
	trials := 40
	for s := 0; s < trials; s++ {
		prog := &Tester{K: k, Reps: 1}
		dec := runTester(t, g, prog, uint64(s))
		if dec.Reject {
			fired++
			verifyWitness(t, g, k, graph.Edge{U: int(dec.Witness[0]), V: int(dec.Witness[len(dec.Witness)-1])}, dec.Witness)
		}
	}
	// Every edge lies on the 9-cycle; a repetition fails only on rank
	// collisions affecting the minimum, which is vanishingly rare with
	// ranks in [1, n^4]. Demand at least 90% success.
	if fired*10 < trials*9 {
		t.Fatalf("single-repetition detection fired only %d/%d times", fired, trials)
	}
}

// TestTesterRejectingNodesAreSound: every rejecting node individually holds
// a witness that is a genuine k-cycle.
func TestTesterRejectingNodesAreSound(t *testing.T) {
	g := graph.Wheel(12)
	for _, k := range []int{3, 4, 5, 6} {
		prog := &Tester{K: k, Reps: 6}
		res, err := runOnce(g, prog, network.Options{}, 77)
		if err != nil {
			t.Fatal(err)
		}
		for v, o := range res.Outputs {
			verdict := *o.(*Verdict)
			if !verdict.Reject {
				continue
			}
			_ = v
			verifyWitness(t, g, k, graph.Edge{
				U: int(verdict.Witness[0]),
				V: int(verdict.Witness[len(verdict.Witness)-1]),
			}, verdict.Witness)
		}
	}
}

// TestTesterPanicsOnBadParams documents the constructor contract.
func TestTesterPanicsOnBadParams(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	info := network.NodeInfo{ID: 0, N: 2, NeighborIDs: []network.ID{1}, Rand: xrand.New(1)}
	assertPanics("k<3", func() { (&Tester{K: 2, Reps: 1}).NewNode(info) })
	assertPanics("no eps no reps", func() { (&Tester{K: 3}).NewNode(info) })
	assertPanics("bad eps", func() { (&Tester{K: 3, Eps: 1.5}).NewNode(info) })
	assertPanics("detector k<3", func() { (&EdgeDetector{K: 2}).NewNode(info) })
}

// fullReceiveTester is the Tester without the rejected-node rule: a node
// that has rejected still runs the whole Phase-2 receive and stores every
// receipt, as one that never rejected does, and skips only detect.
// lastRounds counts the last-round receives of rejected nodes.
type fullReceiveTester struct {
	*Tester
	lastRounds *atomic.Int64
}

func (p fullReceiveTester) NewNode(info network.NodeInfo) network.Node {
	return fullReceiveNode{p.Tester.NewNode(info).(*testerNode), p.lastRounds}
}

type fullReceiveNode struct {
	*testerNode
	lastRounds *atomic.Int64
}

func (n fullReceiveNode) Receive(round int, in [][]byte) {
	_, local := n.phase(round)
	if local == 0 || !n.rejected {
		n.testerNode.Receive(round, in)
		return
	}
	if local == n.prog.K/2 {
		n.lastRounds.Add(1)
	}
	n.rejected = false
	n.receiveChecks(local, in)
	n.rejected = true
}

// TestRejectedNodesSkipOnlyUnreadReceipts runs the Tester and
// fullReceiveTester on the same graphs, seeds and worker counts and
// demands the same Decision (verdict, witness, rejecting IDs, switches)
// and the same Stats: the receipts a rejected node leaves undecoded change
// no output and no message. Every k must have rejected nodes reach a last
// Phase-2 round, so the rule is exercised.
func TestRejectedNodesSkipOnlyUnreadReceipts(t *testing.T) {
	const n, reps = 128, 8
	rng := xrand.New(31)
	gnm := graph.ConnectedGNM(n, 4*n, rng)
	tree := graph.RandomTree(n, rng)
	for k := 3; k <= 9; k++ {
		far, _ := graph.FarFromCkFree(n, k, 0.05, rng)
		var lastRounds atomic.Int64
		for _, tc := range []struct {
			name string
			g    *graph.Graph
		}{{"gnm", gnm}, {"far", far}, {"tree", tree}} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, workers := range []int{1, 3} {
					opts := network.Options{Workers: workers}
					full, err := runOnce(tc.g, fullReceiveTester{&Tester{K: k, Reps: reps}, &lastRounds}, opts, seed)
					if err != nil {
						t.Fatal(err)
					}
					res, err := runOnce(tc.g, &Tester{K: k, Reps: reps}, opts, seed)
					if err != nil {
						t.Fatal(err)
					}
					want, got := Summarize(full.Outputs, full.IDs), Summarize(res.Outputs, res.IDs)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s k=%d seed %d workers %d: decision differs from the full receive\nwant %+v\ngot  %+v",
							tc.name, k, seed, workers, want, got)
					}
					if !reflect.DeepEqual(full.Stats, res.Stats) {
						t.Fatalf("%s k=%d seed %d workers %d: stats differ from the full receive\nwant %+v\ngot  %+v",
							tc.name, k, seed, workers, full.Stats, res.Stats)
					}
				}
			}
		}
		if lastRounds.Load() == 0 {
			t.Fatalf("k=%d: no rejected node reached a last Phase-2 round", k)
		}
	}
}
