// Error-semantics tests: bandwidth violations and node panics must surface
// identically on both engines — earliest violating round first, ties broken
// by lowest vertex — and a Network must recover byte-for-byte after either
// kind of aborted run.
package network_test

import (
	"strings"
	"testing"

	"cycledetect/internal/congest"
	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

// schedTalker sends an oversized payload from chosen nodes at chosen
// rounds (everyone else sends one byte), so tests can stage multiple
// bandwidth violations at different (round, vertex) points.
type schedTalker struct {
	rounds int
	sched  map[congest.ID]int // ID -> round of its oversized send (0 = never)
}

func (p *schedTalker) Rounds(n, m int) int { return p.rounds }
func (p *schedTalker) NewNode(info congest.NodeInfo) congest.Node {
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
	sendAt map[congest.ID]int // ID -> round of its Send panic (0 = never)
	recvAt map[congest.ID]int // ID -> round of its Receive panic
}

func (p *phasePanic) Rounds(n, m int) int { return p.rounds }
func (p *phasePanic) NewNode(info congest.NodeInfo) congest.Node {
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
// round 2. Both engines must report the round-1 violation (the channels
// engine historically ran to completion and reported the lowest node ID
// over the whole run, which would pick vertex 0's round-2 violation here).
func TestBandwidthEarliestRound(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3; oversized sends from 3 hit receiver 2
	prog := func() congest.Program {
		return &schedTalker{rounds: 5, sched: map[congest.ID]int{3: 1, 0: 2}}
	}
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			_, err := congest.RunWith(engine, g, prog(), congest.Config{BandwidthBits: 64})
			if err == nil {
				t.Fatal("expected a bandwidth error")
			}
			be, ok := err.(*congest.ErrBandwidth)
			if !ok {
				t.Fatalf("wrong error type %T: %v", err, err)
			}
			if be.Round != 1 || be.From != 3 || be.To != 2 || be.Bits != 800 {
				t.Fatalf("want the round-1 violation 3->2, got %+v", be)
			}
		})
	}
}

// TestBandwidthLowestVertexTie: two violations in the same round must
// resolve to the lowest receiving vertex on both engines.
func TestBandwidthLowestVertexTie(t *testing.T) {
	g := graph.Path(4)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			prog := &schedTalker{rounds: 3, sched: map[congest.ID]int{0: 1, 3: 1}}
			_, err := congest.RunWith(engine, g, prog, congest.Config{BandwidthBits: 64})
			be, ok := err.(*congest.ErrBandwidth)
			if !ok {
				t.Fatalf("wrong error %v", err)
			}
			if be.Round != 1 || be.From != 0 || be.To != 1 {
				t.Fatalf("want round-1 violation 0->1 (lowest receiver), got %+v", be)
			}
		})
	}
}

// TestPanicIsolationBothEngines: a node panic surfaces as the same error on
// both engines instead of crashing the process (the BSP engine historically
// let panics kill the worker), and a panic at an earlier round beats a
// bandwidth violation at a later one.
func TestPanicIsolationBothEngines(t *testing.T) {
	g := graph.Path(4)
	var msgs []string
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			prog := &phasePanic{rounds: 4, sendAt: map[congest.ID]int{2: 2}}
			_, err := congest.RunWith(engine, g, prog, congest.Config{})
			if err == nil {
				t.Fatal("expected the panic to surface as an error")
			}
			if !strings.Contains(err.Error(), "node 2 panicked in Send (round 2)") {
				t.Fatalf("unexpected error: %v", err)
			}
			msgs = append(msgs, err.Error())
		})
	}
	if len(msgs) == 2 && msgs[0] != msgs[1] {
		t.Fatalf("engines disagree on the panic error:\n bsp      %s\n channels %s", msgs[0], msgs[1])
	}
}

// TestSameRoundPhaseOrdering: within one round, a Send-phase failure must
// outrank a Receive-phase one on both engines, even when the Receive
// panicker has the lower vertex — the BSP engine aborts between delivery
// and Receive, so the channels engine must not let a Receive failure it
// happened to record win the selection.
func TestSameRoundPhaseOrdering(t *testing.T) {
	g := graph.Path(4)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			prog := &phasePanic{
				rounds: 4,
				sendAt: map[congest.ID]int{3: 2},
				recvAt: map[congest.ID]int{1: 2},
			}
			_, err := congest.RunWith(engine, g, prog, congest.Config{})
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), "node 3 panicked in Send (round 2)") {
				t.Fatalf("want the Send-phase panic to win the same-round selection, got: %v", err)
			}
		})
	}
}

// lenProbe records, per node, the largest payload its Receive ever saw, to
// verify programs never observe budget-violating messages on either engine
// (BSP aborts before Receive; the channels engine must nil the payload).
type lenProbe struct {
	rounds int
	maxLen []int // indexed by vertex ID; one writer per slot
}

func (p *lenProbe) Rounds(n, m int) int { return p.rounds }
func (p *lenProbe) NewNode(info congest.NodeInfo) congest.Node {
	return &lenProbeNode{p: p, id: info.ID}
}

type lenProbeNode struct {
	p  *lenProbe
	id congest.ID
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

// TestOverBudgetPayloadNeverDelivered: on both engines, no node's Receive
// may ever observe a payload over the configured budget.
func TestOverBudgetPayloadNeverDelivered(t *testing.T) {
	g := graph.Path(3)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			prog := &lenProbe{rounds: 3, maxLen: make([]int, g.N())}
			_, err := congest.RunWith(engine, g, prog, congest.Config{BandwidthBits: 64})
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
}

// TestRunProgramBandwidthError checks that budget violations on a REUSED
// network surface the same deterministic error as the one-shot entry
// points, on both engines, and that the Network recovers on the next run
// (nodes are rebuilt after an aborted run).
func TestRunProgramBandwidthError(t *testing.T) {
	g := graph.CompleteBipartite(8, 8)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			nw, err := network.New(g, network.Options{Engine: engine, BandwidthBits: 40})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			prog := &core.Tester{K: 6, Reps: 2, Mode: core.ModeNaive}
			_, wantErr := congest.RunWith(engine, g, &core.Tester{K: 6, Reps: 2, Mode: core.ModeNaive},
				congest.Config{Seed: 3, BandwidthBits: 40})
			if wantErr == nil {
				t.Fatal("expected a bandwidth violation from the naive tester")
			}
			_, gotErr := nw.RunProgram(prog, 3)
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("error mismatch:\n got  %v\n want %v", gotErr, wantErr)
			}
			assertMatchesFresh(t, nw, engine, g, 4, 40)
		})
	}
}

// TestNetworkReuseAfterPanic: after a node panic aborts a run, the next
// RunProgram on the same Network must match a fresh congest.RunWith
// byte-for-byte, on both engines.
func TestNetworkReuseAfterPanic(t *testing.T) {
	g := graph.CompleteBipartite(6, 6)
	for _, engine := range engines {
		t.Run(string(engine), func(t *testing.T) {
			nw, err := network.New(g, network.Options{Engine: engine})
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
			bad := &phasePanic{rounds: 3, sendAt: map[congest.ID]int{4: 2}}
			if _, err := nw.RunProgram(bad, 2); err == nil {
				t.Fatal("expected the panic to surface as an error")
			}
			assertMatchesFresh(t, nw, engine, g, 5, 0)
		})
	}
}

// assertMatchesFresh runs a fresh tester program on nw and demands
// byte-identical results (decisions, outputs, stats) with a fresh one-shot
// run of the same configuration — the post-error reuse contract.
func assertMatchesFresh(t *testing.T, nw *network.Instance, engine congest.Engine,
	g *graph.Graph, seed uint64, budget int) {
	t.Helper()
	prog := &core.Tester{K: 6, Reps: 1}
	want, wantErr := congest.RunWith(engine, g, &core.Tester{K: 6, Reps: 1},
		congest.Config{Seed: seed, BandwidthBits: budget})
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
