package core

import (
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
)

// TriangleTester is the distributed triangle-freeness tester in the spirit
// of Censor-Hillel, Fischer, Schwartzman and Vasudev (DISC 2016) — the
// predecessor result [7] that this paper generalizes from k = 3 to all k.
//
// Per round, every node picks a uniformly random incident edge {v, w} and a
// uniformly random other neighbor z, and asks w whether z is also w's
// neighbor; if so, (v, w, z) is a triangle and w rejects. One probe of one
// ID crosses each edge direction per round, so the tester is trivially
// CONGEST-compliant, and it is 1-sided: a reject always exhibits a real
// triangle.
//
// On a graph ε-far from triangle-freeness, a single probe succeeds with
// probability Ω(ε²) (an edge of one of the ≥ εm/3 edge-disjoint triangles
// must be sampled AND the matching third vertex guessed), so O(1/ε²)
// repetitions give constant detection probability — versus the O(1/ε) of
// this paper's tester. The experiment harness (E11) reports both, exhibiting
// the asymptotic gap the paper closes.
type TriangleTester struct {
	// Eps derives the repetition count ⌈27·ln3/ε²⌉ when Reps is zero.
	Eps float64
	// Reps overrides the repetition count when positive.
	Reps int
}

var _ network.Program = (*TriangleTester)(nil)

// Repetitions returns the number of probe rounds.
func (t *TriangleTester) Repetitions() int {
	if t.Reps > 0 {
		return t.Reps
	}
	if t.Eps <= 0 || t.Eps >= 1 {
		panic("core: TriangleTester needs Reps > 0 or Eps in (0,1)")
	}
	// 27/ε² edge-triangle sampling attempts, ln 3 boost for 2/3 success.
	return int(27.0/(t.Eps*t.Eps)*1.0986122886681098) + 1
}

// Rounds implements network.Program: one probe per repetition.
func (t *TriangleTester) Rounds(n, m int) int { return t.Repetitions() }

// NewNode builds per-node state.
func (t *TriangleTester) NewNode(info network.NodeInfo) network.Node {
	tn := &triangleNode{info: info}
	tn.neighborSet = make(map[ID]int, info.Degree())
	for p, id := range info.NeighborIDs {
		tn.neighborSet[id] = p
	}
	return tn
}

type triangleNode struct {
	info        network.NodeInfo
	neighborSet map[ID]int
	rejected    bool
	witness     []ID
	verdict     Verdict // what Output returns a pointer to
}

func (n *triangleNode) Send(round int, out [][]byte) {
	deg := n.info.Degree()
	if deg < 2 {
		return // cannot name a second neighbor; no triangle through this node's probes
	}
	target := n.info.Rand.Intn(deg)
	z := n.info.Rand.Intn(deg - 1)
	if z >= target {
		z++ // a neighbor other than the probe target
	}
	out[target] = wire.EncodeProbe(wire.Probe{Node: n.info.NeighborIDs[z]})
}

func (n *triangleNode) Receive(round int, in [][]byte) {
	for p, payload := range in {
		if payload == nil || wire.Kind(payload) != wire.KindProbe {
			continue
		}
		probe, err := wire.DecodeProbe(payload)
		if err != nil {
			continue
		}
		z := probe.Node
		if z == n.info.ID {
			continue
		}
		if _, adjacent := n.neighborSet[z]; adjacent && !n.rejected {
			// The sender v (port p) is adjacent to both me and z, and z is
			// adjacent to me: triangle (v, me, z).
			n.rejected = true
			n.witness = []ID{n.info.NeighborIDs[p], n.info.ID, z}
		}
	}
}

func (n *triangleNode) Output() any {
	n.verdict = Verdict{Reject: n.rejected, Witness: n.witness}
	return &n.verdict
}
