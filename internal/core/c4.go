package core

import (
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
)

// C4Tester is a distributed C4-freeness tester in the spirit of Fraigniaud,
// Rapaport, Salo and Todinca (DISC 2016) — the second predecessor [20],
// which extended constant-round testing from triangles to every 4-node
// pattern, again with O(1/ε²) repetitions. Together with TriangleTester it
// completes the k ≤ 4 state of the art that this paper's O(1/ε) algorithm
// for all k supersedes.
//
// One repetition spans two rounds:
//
//	round A: every node u picks a random incident edge {u,v} and a random
//	         other neighbor w, and sends w's ID to v;
//	round B: v relays one received (u,w) pair to a random neighbor
//	         x ∉ {u}; if x finds w among its own neighbors, the cycle
//	         (u, v, x, w) is real — edges u–v (sampled), v–x (relay),
//	         x–w (checked), w–u (by choice of w) — and x rejects.
//
// Every message carries at most two IDs, so the tester is CONGEST-compliant,
// and it is 1-sided: rejects always exhibit a genuine C4.
type C4Tester struct {
	// Eps derives the repetition count when Reps is zero.
	Eps float64
	// Reps overrides the repetition count when positive.
	Reps int
}

var _ network.Program = (*C4Tester)(nil)

// Repetitions returns the number of two-round repetitions.
func (t *C4Tester) Repetitions() int {
	if t.Reps > 0 {
		return t.Reps
	}
	if t.Eps <= 0 || t.Eps >= 1 {
		panic("core: C4Tester needs Reps > 0 or Eps in (0,1)")
	}
	return int(48.0/(t.Eps*t.Eps)*1.0986122886681098) + 1
}

// Rounds implements network.Program: two rounds per repetition.
func (t *C4Tester) Rounds(n, m int) int { return 2 * t.Repetitions() }

// NewNode builds per-node state.
func (t *C4Tester) NewNode(info network.NodeInfo) network.Node {
	cn := &c4Node{info: info, neighborSet: make(map[ID]bool, info.Degree())}
	for _, id := range info.NeighborIDs {
		cn.neighborSet[id] = true
	}
	return cn
}

type c4Node struct {
	info        network.NodeInfo
	neighborSet map[ID]bool
	// pending is the (origin, candidate) pair chosen for relay this
	// repetition, set during the A-round receive.
	pendingOrigin ID
	pendingW      ID
	havePending   bool
	rejected      bool
	witness       []ID
	verdict       Verdict // what Output returns a pointer to
}

func (n *c4Node) Send(round int, out [][]byte) {
	deg := n.info.Degree()
	if round%2 == 1 {
		// Round A: sample an edge and a disjoint neighbor.
		if deg < 2 {
			return
		}
		target := n.info.Rand.Intn(deg)
		w := n.info.Rand.Intn(deg - 1)
		if w >= target {
			w++
		}
		out[target] = wire.EncodeCheck(&wire.Check{
			U: n.info.ID, V: n.info.NeighborIDs[w], Rank: 0, Seqs: nil,
		})
		return
	}
	// Round B: relay the pending pair to a random neighbor other than the
	// origin.
	if !n.havePending {
		return
	}
	candidates := make([]int, 0, deg)
	for p, id := range n.info.NeighborIDs {
		if id != n.pendingOrigin {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return
	}
	p := candidates[n.info.Rand.Intn(len(candidates))]
	out[p] = wire.EncodeCheck(&wire.Check{
		U: n.pendingOrigin, V: n.pendingW, Rank: 1, Seqs: nil,
	})
	n.havePending = false
}

func (n *c4Node) Receive(round int, in [][]byte) {
	if round%2 == 1 {
		// A-round receipts: pick one pair uniformly among arrivals
		// (reservoir of size 1) for the relay.
		n.havePending = false
		seen := 0
		for _, payload := range in {
			if payload == nil || wire.Kind(payload) != wire.KindCheck {
				continue
			}
			c, err := wire.DecodeCheck(payload)
			if err != nil || c.Rank != 0 {
				continue
			}
			seen++
			if n.info.Rand.Intn(seen) == 0 {
				n.pendingOrigin, n.pendingW = c.U, c.V
				n.havePending = true
			}
		}
		return
	}
	// B-round receipts: check candidate adjacency.
	for p, payload := range in {
		if payload == nil || wire.Kind(payload) != wire.KindCheck {
			continue
		}
		c, err := wire.DecodeCheck(payload)
		if err != nil || c.Rank != 1 {
			continue
		}
		u, w := c.U, c.V
		relay := n.info.NeighborIDs[p]
		me := n.info.ID
		if me == u || me == w || u == relay || w == relay || u == w {
			continue
		}
		if n.neighborSet[w] && !n.rejected {
			n.rejected = true
			n.witness = []ID{u, relay, me, w}
		}
	}
}

func (n *c4Node) Output() any {
	n.verdict = Verdict{Reject: n.rejected, Witness: n.witness}
	return &n.verdict
}
