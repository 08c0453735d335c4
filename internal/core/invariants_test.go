package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
	"cycledetect/internal/xrand"
)

// TestDetectorMatchesOracleN6Sampled extends the exhaustive n=5 cross-check
// to a deterministic sample of connected 6-vertex graphs (the full space is
// 2^15 edge subsets). Every edge, k = 3..6, verdict vs oracle.
func TestDetectorMatchesOracleN6Sampled(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rng := xrand.New(20260611)
	const masks = 500
	for i := 0; i < masks; i++ {
		mask := rng.Intn(1 << 15)
		g := graphFromMask(6, mask)
		if !graph.Connected(g) {
			continue
		}
		for k := 3; k <= 6; k++ {
			checkAllEdges(t, g, k, fmt.Sprintf("n=6 mask=%d", mask))
		}
	}
}

// observingProgram wraps the Tester and records, per (sender, round), the
// set of candidate edges appearing in its outgoing check messages, plus the
// per-node sequence of check priorities sent.
type observingProgram struct {
	inner *Tester
	mu    sync.Mutex
	sends map[network.ID][]sentCheck // per node, in round order
}

type sentCheck struct {
	round int
	u, v  wire.ID
	rank  uint64
}

func (o *observingProgram) Rounds(n, m int) int { return o.inner.Rounds(n, m) }

func (o *observingProgram) NewNode(info network.NodeInfo) network.Node {
	return &observingNode{Node: o.inner.NewNode(info), prog: o, id: info.ID}
}

type observingNode struct {
	network.Node
	prog *observingProgram
	id   network.ID
}

func (n *observingNode) Send(round int, out [][]byte) {
	n.Node.Send(round, out)
	var recorded bool
	for _, payload := range out {
		if payload == nil || wire.Kind(payload) != wire.KindCheck {
			continue
		}
		c, err := wire.DecodeCheck(payload)
		if err != nil {
			continue
		}
		n.prog.mu.Lock()
		if !recorded {
			n.prog.sends[n.id] = append(n.prog.sends[n.id],
				sentCheck{round: round, u: c.U, v: c.V, rank: c.Rank})
			recorded = true
		} else {
			// Multiple distinct payloads in one round would break the
			// one-check-per-direction guarantee; flag via sentinel.
			last := n.prog.sends[n.id][len(n.prog.sends[n.id])-1]
			if last.u != c.U || last.v != c.V {
				n.prog.sends[n.id] = append(n.prog.sends[n.id],
					sentCheck{round: -round, u: c.U, v: c.V, rank: c.Rank})
			}
		}
		n.prog.mu.Unlock()
	}
}

// TestTesterPriorityInvariants validates the two structural claims of
// Phase 1 (§3.1) under heavy concurrency:
//
//  1. a node sends messages of at most ONE check per round (so no two
//     checks cross an edge in the same direction in the same round), and
//  2. within a repetition, the (rank, edge) priority of the check a node
//     works on only ever improves.
func TestTesterPriorityInvariants(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 8; trial++ {
		n := 16 + rng.Intn(24)
		g := graph.ConnectedGNM(n, 3*n, rng)
		inner := &Tester{K: 6, Reps: 3}
		obs := &observingProgram{inner: inner, sends: map[network.ID][]sentCheck{}}
		if _, err := runOnce(g, obs, network.Options{}, uint64(trial)); err != nil {
			t.Fatal(err)
		}
		per := inner.RoundsPerRep()
		for id, seq := range obs.sends {
			prevRep := -1
			var prev sentCheck
			for _, sc := range seq {
				if sc.round < 0 {
					t.Fatalf("node %d sent two different checks in round %d", id, -sc.round)
				}
				rep := (sc.round - 1) / per
				if rep == prevRep {
					// Priority must be non-worsening within a repetition.
					if lessCheck(prev.rank, prev.u, prev.v, sc.rank, sc.u, sc.v) &&
						!(prev.u == sc.u && prev.v == sc.v && prev.rank == sc.rank) {
						t.Fatalf("node %d regressed from rank %d edge {%d,%d} to rank %d edge {%d,%d}",
							id, prev.rank, prev.u, prev.v, sc.rank, sc.u, sc.v)
					}
				}
				prev, prevRep = sc, rep
			}
		}
	}
}

// TestTesterSwitchesHappen sanity-checks the instrumentation: on dense
// graphs with many concurrent checks, preemption must actually occur
// (otherwise the priority test above is vacuous).
func TestTesterSwitchesHappen(t *testing.T) {
	rng := xrand.New(78)
	g := graph.ConnectedGNM(40, 160, rng)
	prog := &Tester{K: 6, Reps: 3}
	dec := runTester(t, g, prog, 9)
	if dec.Switches == 0 {
		t.Fatal("no check preemption observed on a dense graph — instrumentation or priority logic broken")
	}
}

// TestEvenOddFinalCheckRegression pins the even-k final-check correction
// (pair with sequences received at round ⌊k/2⌋, not the literal ⌊k/2⌋−1)
// with the smallest cases: C4 and C6 detection (even k) and C5/C7 (odd k)
// on pure cycles, which the literal pseudocode transcription would miss
// entirely for even k.
func TestEvenOddFinalCheckRegression(t *testing.T) {
	for _, k := range []int{4, 5, 6, 7, 8, 9, 10, 11} {
		g := graph.Cycle(k)
		dec := runDetector(t, g, k, graph.Edge{U: 0, V: 1})
		if !dec.Reject {
			t.Fatalf("C%d through {0,1} missed (final-check regression)", k)
		}
	}
}

// TestWitnessStartsAtCandidateEdge: the witness contract promised by the
// public API — first and last witness entries are the candidate edge.
func TestWitnessStartsAtCandidateEdge(t *testing.T) {
	rng := xrand.New(79)
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(8)
		g := graph.ConnectedGNM(n, 2*n, rng)
		for k := 3; k <= 7; k++ {
			for _, e := range g.Edges()[:3] {
				dec := runDetector(t, g, k, e)
				if !dec.Reject {
					continue
				}
				h, l := int(dec.Witness[0]), int(dec.Witness[len(dec.Witness)-1])
				if !((h == e.U && l == e.V) || (h == e.V && l == e.U)) {
					t.Fatalf("witness %v does not wrap candidate %v", dec.Witness, e)
				}
			}
		}
	}
}

// TestTesterScales runs the full stack at n=5000 — far beyond the oracle's
// reach — asserting completion, bounded messages and 1-sided sanity (the
// instance is a tree plus one planted k-cycle, so the only possible reject
// is that cycle).
func TestTesterScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	rng := xrand.New(2026)
	const n, k = 5000, 6
	g, e := graph.PlantedCycle(n, k, 0, rng) // tree + one C6
	prog := &Tester{K: k, Reps: 8}
	res, err := runOnce(g, prog, network.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dec := Summarize(res.Outputs, res.IDs)
	if dec.Reject {
		verifyWitness(t, g, k, graph.Edge{
			U: int(dec.Witness[0]), V: int(dec.Witness[len(dec.Witness)-1]),
		}, dec.Witness)
	}
	// Deterministic detector must find the planted cycle at this scale.
	det := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V)}
	dres, err := runOnce(g, det, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Summarize(dres.Outputs, dres.IDs).Reject {
		t.Fatal("planted cycle missed at n=5000")
	}
	if res.Stats.MaxMessageBits > 1024 {
		t.Fatalf("max message %d bits at n=5000", res.Stats.MaxMessageBits)
	}
}

// TestDisconnectedComponents documents behavior outside the model's
// assumption: the CONGEST model assumes a connected network, but the
// simulator runs components independently, and detection within a component
// still works while 1-sidedness is global.
func TestDisconnectedComponents(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(5), graph.Path(4))
	dec := runDetector(t, g, 5, graph.Edge{U: 0, V: 1})
	if !dec.Reject {
		t.Fatal("cycle in one component not detected")
	}
	dec = runDetector(t, g, 4, graph.Edge{U: 5, V: 6})
	if dec.Reject {
		t.Fatal("false reject in acyclic component")
	}
}

// TestPhase2SequencesAreSimplePaths checks Lemma 1 on live traffic. It
// decodes every Phase-2 payload of real runs in the lockstep harness,
// k = 3..9: the tester's, which forwards representative subsets, and the
// naive EdgeDetector's on every 15th edge of the same graph, which forwards
// every receipt. Each payload must be a check of a graph edge, and each of
// its sequences a simple path of t IDs (t the Phase-2 round) from an
// endpoint of that edge to the sender. validPair and the witness assembly
// rely on it, and so does absorbView's note that honest traffic never
// repeats a sequence.
func TestPhase2SequencesAreSimplePaths(t *testing.T) {
	rng := xrand.New(43)
	g := graph.ConnectedGNM(40, 120, rng)
	edges := g.Edges()
	for k := 3; k <= 9; k++ {
		tester := &Tester{K: k, Reps: 3}
		per := tester.RoundsPerRep()
		checkPhase2Paths(t, fmt.Sprintf("tester k=%d", k), g, tester, uint64(k),
			func(r int) int { return (r - 1) % per })
		for i := 0; i < len(edges); i += 15 {
			e := edges[i]
			det := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V), Mode: ModeNaive}
			checkPhase2Paths(t, fmt.Sprintf("naive detector k=%d on %v", k, e), g, det, 0,
				func(r int) int { return r })
		}
	}
}

// checkPhase2Paths runs prog in the lockstep harness and checks every
// payload sent in a Phase-2 round for TestPhase2SequencesAreSimplePaths.
// local maps a round to its Phase-2 round t, or to 0 for a Phase-1 round.
func checkPhase2Paths(t *testing.T, name string, g *graph.Graph, prog network.Program, seed uint64, local func(r int) int) {
	t.Helper()
	ls := newLockstep(g, prog, seed)
	seqs := 0
	for r := 1; r <= prog.Rounds(g.N(), g.M()); r++ {
		tr := local(r)
		ls.round(r, func() {
			if tr == 0 {
				return
			}
			for v, out := range ls.out {
				for _, payload := range out {
					if payload == nil {
						continue
					}
					c, err := wire.DecodeCheck(payload)
					if err != nil || !g.HasEdge(int(c.U), int(c.V)) {
						t.Fatalf("%s round %d: node %d sent a bad check (%v)", name, r, v, err)
					}
					for _, seq := range c.Seqs {
						if !isPathFrom(g, seq, tr, c.U, c.V, ID(v)) {
							t.Fatalf("%s round %d: node %d sent %v on check {%d,%d}, not a simple path of %d IDs from the edge to the sender",
								name, r, v, seq, c.U, c.V, tr)
						}
					}
					seqs += len(c.Seqs)
				}
			}
		})
	}
	if seqs == 0 {
		t.Fatalf("%s: no Phase-2 sequence was sent", name)
	}
}

// isPathFrom reports whether seq is a simple path of n IDs in g that starts
// at u or v and ends at sender (vertex i has ID i).
func isPathFrom(g *graph.Graph, seq []ID, n int, u, v, sender ID) bool {
	if len(seq) != n || (seq[0] != u && seq[0] != v) || seq[n-1] != sender {
		return false
	}
	for i, id := range seq {
		if slices.Contains(seq[:i], id) || (i > 0 && !g.HasEdge(int(seq[i-1]), int(id))) {
			return false
		}
	}
	return true
}
