package core

import (
	"fmt"
	"strings"

	"cycledetect/internal/network"
	"cycledetect/internal/trace"
	"cycledetect/internal/wire"
)

// EdgeDetector is Phase 2 in isolation: the deterministic distributed check
// for "does a k-cycle pass through the edge {U, V}?" of §3.2–3.4. It runs in
// exactly ⌊k/2⌋ rounds, needs no randomness and no ε-farness assumption —
// a single k-cycle through the edge is always detected (Lemma 2), and a
// reject always exhibits a real cycle (1-sidedness).
//
// U and V are node identifiers; the detector is well-defined even if {U,V}
// is not an edge (then nothing can be detected, since seeds never meet).
type EdgeDetector struct {
	K    int
	U, V ID
	// Mode selects pruned (Algorithm 1) or naive forwarding.
	Mode Mode
	// Trace, when non-nil, records every send and detection for the
	// Figure-1 walkthrough.
	Trace *trace.Log
}

var _ network.Program = (*EdgeDetector)(nil)

// Validate checks the parameters as Tester.Validate does, with two
// distinct endpoints in place of Eps and Reps.
func (d *EdgeDetector) Validate() error {
	if d.U == d.V {
		return fmt.Errorf("candidate edge endpoints equal (%d)", d.U)
	}
	return validK(d.K)
}

// Rounds returns ⌊k/2⌋, independent of the network size (Theorem 1).
func (d *EdgeDetector) Rounds(n, m int) int { return d.K / 2 }

// NewNode builds the per-node state. Its arenas start empty and grow on
// demand; checkState.prealloc says why the detector does not reserve.
func (d *EdgeDetector) NewNode(info network.NodeInfo) network.Node {
	if d.K < 3 {
		panic(fmt.Sprintf("core: EdgeDetector needs k >= 3, got %d", d.K))
	}
	seeder := (info.ID == d.U && hasNeighbor(info.NeighborIDs, d.V)) ||
		(info.ID == d.V && hasNeighbor(info.NeighborIDs, d.U))
	n := &edgeDetNode{prog: d, info: info}
	n.cs.reset(d.K, d.U, d.V, 0, info.ID, seeder, d.Mode)
	return n
}

type edgeDetNode struct {
	prog    *EdgeDetector
	info    network.NodeInfo
	cs      checkState
	metrics NodeMetrics
	verdict Verdict // cached output, returned by pointer from Output
	payload []byte  // reusable outgoing buffer; see testerNode
}

var _ network.ReusableNode = (*edgeDetNode)(nil)

// Reset implements network.ReusableNode: re-bind the node to a fresh run of
// the same EdgeDetector without reallocating its arenas. The detector is
// deterministic, so Reset just replays NewNode's initialization on the
// retained buffers.
func (n *edgeDetNode) Reset(info network.NodeInfo) {
	d := n.prog
	seeder := (info.ID == d.U && hasNeighbor(info.NeighborIDs, d.V)) ||
		(info.ID == d.V && hasNeighbor(info.NeighborIDs, d.U))
	n.info = info
	n.metrics.reset()
	n.cs.reset(d.K, d.U, d.V, 0, info.ID, seeder, d.Mode)
}

func (n *edgeDetNode) Send(round int, out [][]byte) {
	cnt := n.cs.sendSeqs(round)
	n.metrics.observeSend(round, cnt, n.prog.K/2)
	if cnt == 0 {
		return
	}
	n.payload = wire.AppendCheckArena(n.payload[:0], n.cs.u, n.cs.v, 0, &n.cs.sent)
	for p := range out {
		out[p] = n.payload
	}
	if n.prog.Trace != nil {
		n.prog.Trace.Add(round, n.info.ID, "send", "broadcasts %s", formatArena(&n.cs.sent))
	}
}

func (n *edgeDetNode) Receive(round int, in [][]byte) {
	for _, payload := range in {
		if payload == nil {
			continue
		}
		// Malformed traffic cannot make a 1-sided tester reject; drop it.
		// A bad header is skipped here; a bad body is rolled back inside
		// absorbView, which is the same drop.
		v, err := wire.ParseCheck(payload)
		if err != nil {
			continue
		}
		if !n.cs.sameEdge(v.U, v.V) {
			continue
		}
		n.cs.absorbView(round, &v)
	}
	if n.prog.Trace != nil && round == n.cs.recvRound && n.cs.recv.Len() > 0 {
		n.prog.Trace.Add(round, n.info.ID, "recv", "holds %s", formatArena(&n.cs.recv))
	}
}

func (n *edgeDetNode) Output() any {
	reject, witness := n.cs.detect()
	if reject && n.prog.Trace != nil {
		n.prog.Trace.Add(n.prog.K/2, n.info.ID, "reject", "detects C%d %v", n.prog.K, witness)
	}
	// Returned by pointer to keep output collection allocation-free; see
	// testerNode.Output.
	n.verdict = Verdict{Reject: reject, Witness: witness, Metrics: n.metrics}
	return &n.verdict
}

func hasNeighbor(neighbors []ID, id ID) bool {
	for _, n := range neighbors {
		if n == id {
			return true
		}
	}
	return false
}

func formatArena(a *wire.SeqArena) string {
	parts := make([]string, a.Len())
	for i := range parts {
		s := a.Seq(i)
		elems := make([]string, len(s))
		for j, id := range s {
			elems[j] = fmt.Sprint(id)
		}
		parts[i] = "(" + strings.Join(elems, ",") + ")"
	}
	return "{" + strings.Join(parts, " ") + "}"
}
