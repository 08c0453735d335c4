// Error-semantics tests: bandwidth violations and node panics must surface
// deterministically — earliest violating round and phase first, ties broken
// by lowest vertex (for a budget violation, its sender) — and a Network must
// recover byte-for-byte after either kind of aborted run.
package network_test

import (
	"strings"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

// schedTalker sends an oversized payload from chosen nodes at chosen
// rounds (everyone else sends one byte), so tests can stage multiple
// bandwidth violations at different (round, vertex) points.
type schedTalker struct {
	rounds int
	sched  map[network.ID]int // ID -> round of its oversized send (0 = never)
}

func (p *schedTalker) Rounds(n, m int) int { return p.rounds }
func (p *schedTalker) NewNode(info network.NodeInfo) network.Node {
	return &schedNode{at: p.sched[info.ID]}
}

type schedNode struct{ at int }

func (s *schedNode) Send(round int, out [][]byte) {
	for pt := range out {
		if round == s.at {
			out[pt] = make([]byte, 100)
		} else {
			out[pt] = []byte{1}
		}
	}
}
func (s *schedNode) Receive(int, [][]byte) {}
func (s *schedNode) Output() any           { return nil }

// phasePanic panics in Send and/or Receive at per-node chosen rounds.
type phasePanic struct {
	rounds int
	sendAt map[network.ID]int // ID -> round of its Send panic (0 = never)
	recvAt map[network.ID]int // ID -> round of its Receive panic
}

func (p *phasePanic) Rounds(n, m int) int { return p.rounds }
func (p *phasePanic) NewNode(info network.NodeInfo) network.Node {
	return &panicNode{sendAt: p.sendAt[info.ID], recvAt: p.recvAt[info.ID]}
}

type panicNode struct{ sendAt, recvAt int }

func (pn *panicNode) Send(round int, out [][]byte) {
	if round == pn.sendAt {
		panic("boom")
	}
	for pt := range out {
		out[pt] = []byte{1}
	}
}
func (pn *panicNode) Receive(round int, in [][]byte) {
	if round == pn.recvAt {
		panic("boom")
	}
}
func (pn *panicNode) Output() any { return nil }

// TestBandwidthEarliestRound stages violations so that the lowest vertex is
// NOT the earliest violator: vertex 3 violates at round 1, vertex 0 at
// round 2. The run must report the round-1 violation, not the lowest node
// ID over the whole run (which would pick vertex 0's round-2 violation).
func TestBandwidthEarliestRound(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3; oversized sends from 3 hit receiver 2
	prog := func() network.Program {
		return &schedTalker{rounds: 5, sched: map[network.ID]int{3: 1, 0: 2}}
	}
	t.Run(engineName, func(t *testing.T) {
		_, err := runOnce(g, prog(), network.Options{BandwidthBits: 64}, 0)
		if err == nil {
			t.Fatal("expected a bandwidth error")
		}
		be, ok := err.(*network.ErrBandwidth)
		if !ok {
			t.Fatalf("wrong error type %T: %v", err, err)
		}
		if be.Round != 1 || be.From != 3 || be.To != 2 || be.Bits != 800 {
			t.Fatalf("want the round-1 violation 3->2, got %+v", be)
		}
	})
}

// TestBandwidthLowestVertexTie: two violations in the same round must
// resolve to the lowest sending vertex.
func TestBandwidthLowestVertexTie(t *testing.T) {
	g := graph.Path(4)
	t.Run(engineName, func(t *testing.T) {
		prog := &schedTalker{rounds: 3, sched: map[network.ID]int{0: 1, 3: 1}}
		_, err := runOnce(g, prog, network.Options{BandwidthBits: 64}, 0)
		be, ok := err.(*network.ErrBandwidth)
		if !ok {
			t.Fatalf("wrong error %v", err)
		}
		if be.Round != 1 || be.From != 0 || be.To != 1 {
			t.Fatalf("want round-1 violation 0->1 (lowest sender), got %+v", be)
		}
	})
}

// TestBandwidthLowestSender pins the sender rule where it differs from the
// receiver rule. On the path 1-0-3-2, vertices 2 and 3 both send over budget
// in round 1. The lowest sender is 2 (2->3); the lowest receiver would be 0
// (3->0). The answer must not depend on the worker count.
func TestBandwidthLowestSender(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddPath(1, 0, 3, 2)
	g := b.Build()
	for _, workers := range []int{1, 2, 4} {
		prog := &schedTalker{rounds: 3, sched: map[network.ID]int{2: 1, 3: 1}}
		_, err := runOnce(g, prog, network.Options{BandwidthBits: 64, Workers: workers}, 0)
		be, ok := err.(*network.ErrBandwidth)
		if !ok {
			t.Fatalf("workers=%d: wrong error %v", workers, err)
		}
		if be.Round != 1 || be.From != 2 || be.To != 3 {
			t.Fatalf("workers=%d: want round-1 violation 2->3 (lowest sender), got %+v", workers, be)
		}
	}
}

// TestPanicIsolation: a node panic surfaces as an error instead of
// crashing the process (the engine historically let panics kill the
// worker), and a panic at an earlier round beats a bandwidth violation at a
// later one.
func TestPanicIsolation(t *testing.T) {
	g := graph.Path(4)
	t.Run(engineName, func(t *testing.T) {
		prog := &phasePanic{rounds: 4, sendAt: map[network.ID]int{2: 2}}
		_, err := runOnce(g, prog, network.Options{}, 0)
		if err == nil {
			t.Fatal("expected the panic to surface as an error")
		}
		if !strings.Contains(err.Error(), "node 2 panicked in Send (round 2)") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}

// TestSameRoundPhaseOrdering: within one round, a Send-phase failure must
// outrank a Receive-phase one, even when the Receive panicker has the lower
// vertex — the engine aborts between the Send and Receive phases.
func TestSameRoundPhaseOrdering(t *testing.T) {
	g := graph.Path(4)
	t.Run(engineName, func(t *testing.T) {
		prog := &phasePanic{
			rounds: 4,
			sendAt: map[network.ID]int{3: 2},
			recvAt: map[network.ID]int{1: 2},
		}
		_, err := runOnce(g, prog, network.Options{}, 0)
		if err == nil {
			t.Fatal("expected an error")
		}
		if !strings.Contains(err.Error(), "node 3 panicked in Send (round 2)") {
			t.Fatalf("want the Send-phase panic to win the same-round selection, got: %v", err)
		}
	})
}

// sendProbe records, per node, the last round its Send ran, and makes
// vertex 3 panic in Receive at round 2.
type sendProbe struct{ lastSend []int } // indexed by vertex ID; one writer per slot

func (p *sendProbe) Rounds(n, m int) int { return 4 }
func (p *sendProbe) NewNode(info network.NodeInfo) network.Node {
	return &sendProbeNode{p: p, id: info.ID}
}

type sendProbeNode struct {
	p  *sendProbe
	id network.ID
}

func (n *sendProbeNode) Send(round int, out [][]byte) { n.p.lastSend[n.id] = round }
func (n *sendProbeNode) Receive(round int, in [][]byte) {
	if n.id == 3 && round == 2 {
		panic("boom")
	}
}
func (n *sendProbeNode) Output() any { return nil }

// TestReceivePanicAbortsItsRound: a Receive panic aborts the run at the
// barrier after that Receive phase, so no node sends in the next round and
// the error names the Receive round.
func TestReceivePanicAbortsItsRound(t *testing.T) {
	g := graph.Path(5)
	prog := &sendProbe{lastSend: make([]int, g.N())}
	_, err := runOnce(g, prog, network.Options{Workers: 2}, 0)
	if err == nil || !strings.Contains(err.Error(), "node 3 panicked in Receive (round 2)") {
		t.Fatalf("want the round-2 Receive panic, got: %v", err)
	}
	for v, r := range prog.lastSend {
		if r != 2 {
			t.Fatalf("vertex %d last sent in round %d; the run must stop after round 2", v, r)
		}
	}
}

// lenProbe records, per node, the largest payload its Receive ever saw, to
// verify programs never observe budget-violating messages (the engine
// aborts before Receive).
type lenProbe struct {
	rounds int
	maxLen []int // indexed by vertex ID; one writer per slot
}

func (p *lenProbe) Rounds(n, m int) int { return p.rounds }
func (p *lenProbe) NewNode(info network.NodeInfo) network.Node {
	return &lenProbeNode{p: p, id: info.ID}
}

type lenProbeNode struct {
	p  *lenProbe
	id network.ID
}

func (n *lenProbeNode) Send(round int, out [][]byte) {
	for pt := range out {
		if n.id == 0 {
			out[pt] = make([]byte, 100)
		} else {
			out[pt] = []byte{1}
		}
	}
}
func (n *lenProbeNode) Receive(round int, in [][]byte) {
	for _, pl := range in {
		if len(pl) > n.p.maxLen[n.id] {
			n.p.maxLen[n.id] = len(pl)
		}
	}
}
func (n *lenProbeNode) Output() any { return nil }

// TestOverBudgetPayloadNeverDelivered: no node's Receive
// may ever observe a payload over the configured budget.
func TestOverBudgetPayloadNeverDelivered(t *testing.T) {
	g := graph.Path(3)
	t.Run(engineName, func(t *testing.T) {
		prog := &lenProbe{rounds: 3, maxLen: make([]int, g.N())}
		_, err := runOnce(g, prog, network.Options{BandwidthBits: 64}, 0)
		if err == nil {
			t.Fatal("expected a bandwidth error")
		}
		for v, l := range prog.maxLen {
			if l > 64/8 {
				t.Fatalf("node %d observed a %d-byte payload over the 8-byte budget", v, l)
			}
		}
	})
}

// TestRunProgramBandwidthError checks that budget violations on a REUSED
// network surface the same deterministic error as the one-shot entry
// points, and that the Network recovers on the next run
// (nodes are rebuilt after an aborted run).
func TestRunProgramBandwidthError(t *testing.T) {
	g := graph.CompleteBipartite(8, 8)
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{BandwidthBits: 40})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		prog := &core.Tester{K: 6, Reps: 2}
		_, wantErr := runOnce(g, &core.Tester{K: 6, Reps: 2}, network.Options{BandwidthBits: 40}, 3)
		if wantErr == nil {
			t.Fatal("expected a bandwidth violation: Phase-2 checks on K_{8,8} exceed 40 bits")
		}
		_, gotErr := nw.RunProgram(prog, 3)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error mismatch:\n got  %v\n want %v", gotErr, wantErr)
		}
		assertMatchesFresh(t, nw, g, 4, 40)
	})
}

// TestNetworkReuseAfterPanic: after a node panic aborts a run, the next
// RunProgram on the same Network must match a fresh single-use run
// byte-for-byte.
func TestNetworkReuseAfterPanic(t *testing.T) {
	g := graph.CompleteBipartite(6, 6)
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		// Warm the node cache with a clean run first, so the post-panic
		// run exercises recovery from the cached-node path too.
		warm := &core.Tester{K: 6, Reps: 1}
		if _, err := nw.RunProgram(warm, 1); err != nil {
			t.Fatal(err)
		}
		bad := &phasePanic{rounds: 3, sendAt: map[network.ID]int{4: 2}}
		if _, err := nw.RunProgram(bad, 2); err == nil {
			t.Fatal("expected the panic to surface as an error")
		}
		assertMatchesFresh(t, nw, g, 5, 0)
	})
}

// assertMatchesFresh runs a fresh tester program on nw and demands
// byte-identical results (decisions, outputs, stats) with a fresh one-shot
// run of the same configuration — the post-error reuse contract.
func assertMatchesFresh(t *testing.T, nw *network.Instance, g *graph.Graph, seed uint64, budget int) {
	t.Helper()
	prog := &core.Tester{K: 6, Reps: 1}
	want, wantErr := runOnce(g, &core.Tester{K: 6, Reps: 1}, network.Options{BandwidthBits: budget}, seed)
	got, gotErr := nw.RunProgram(prog, seed)
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("post-abort error mismatch:\n got  %v\n want %v", gotErr, wantErr)
		}
	case gotErr != nil:
		t.Fatalf("post-abort run failed: %v", gotErr)
	default:
		assertResultsEqual(t, seed, want, got)
		wd, gd := core.Summarize(want.Outputs, want.IDs), core.Summarize(got.Outputs, got.IDs)
		if wd.Reject != gd.Reject {
			t.Fatalf("post-abort decision mismatch: got %v want %v", gd.Reject, wd.Reject)
		}
	}
}

// scaledProg's nodes output their vertex ID times scale and are reusable.
// NewNode panics at vertex panicAt (when non-negative), as the tester and
// detector NewNode do on invalid parameters.
type scaledProg struct {
	scale   int
	panicAt network.ID
}

func (p *scaledProg) Rounds(n, m int) int { return 1 }
func (p *scaledProg) NewNode(info network.NodeInfo) network.Node {
	if info.ID == p.panicAt {
		panic("scaledProg: invalid parameters")
	}
	return &scaledNode{out: int(info.ID) * p.scale}
}

type scaledNode struct{ out int }

func (*scaledNode) Send(int, [][]byte)     {}
func (*scaledNode) Receive(int, [][]byte)  {}
func (n *scaledNode) Output() any          { return n.out }
func (*scaledNode) Reset(network.NodeInfo) {}

// TestNewNodePanicDoesNotPoisonWarmNodes: a program whose NewNode panics
// partway through the node build must not leave its nodes behind for the
// warm path of the previous program. A runs warm, B panics at vertex 5
// after replacing vertices 0-4, and A's next run must output A's values.
func TestNewNodePanicDoesNotPoisonWarmNodes(t *testing.T) {
	nw, err := network.New(graph.Cycle(8), network.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	a := &scaledProg{scale: 1, panicAt: -1}
	for seed := uint64(1); seed <= 2; seed++ { // the second run is warm
		if _, err := nw.RunProgram(a, seed); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("B's NewNode panic did not propagate")
			}
		}()
		nw.RunProgram(&scaledProg{scale: 100, panicAt: 5}, 3)
	}()
	res, err := nw.RunProgram(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out != v {
			t.Fatalf("after B's NewNode panic, A's outputs read %v, want each vertex's own ID", res.Outputs)
		}
	}
}
