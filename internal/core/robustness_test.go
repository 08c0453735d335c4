package core

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/wire"
	"cycledetect/internal/xrand"
)

// corruptingProgram wraps another program and makes one node emit
// undecodable garbage (kind byte 0xFF) instead of some of its messages.
// Receivers must drop the garbage and the run must neither crash nor change
// its verdict relative to a clean run on the graph minus that node's
// contributions — in particular, 1-sidedness must survive.
type corruptingProgram struct {
	inner    network.Program
	badNode  network.ID
	badEvery int // corrupt every badEvery-th round
}

func (c *corruptingProgram) Rounds(n, m int) int { return c.inner.Rounds(n, m) }

func (c *corruptingProgram) NewNode(info network.NodeInfo) network.Node {
	node := c.inner.NewNode(info)
	if info.ID != c.badNode {
		return node
	}
	return &corruptingNode{Node: node, every: c.badEvery}
}

type corruptingNode struct {
	network.Node
	every int
}

func (c *corruptingNode) Send(round int, out [][]byte) {
	c.Node.Send(round, out)
	if c.every > 0 && round%c.every == 0 {
		for p := range out {
			out[p] = []byte{0xFF, 0xBA, 0xD0} // unknown kind: must be dropped
		}
	}
}

// TestGarbageTrafficDoesNotCrashOrFalseReject: with a garbage-spewing node,
// runs complete, and any reject still carries a machine-verifiable cycle.
func TestGarbageTrafficDoesNotCrashOrFalseReject(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(8)
		g := graph.ConnectedGNM(n, n+rng.Intn(n), rng)
		for _, k := range []int{3, 5, 6} {
			inner := &Tester{K: k, Reps: 3}
			prog := &corruptingProgram{inner: inner, badNode: network.ID(rng.Intn(n)), badEvery: 2}
			res, err := runOnce(g, prog, network.Options{}, uint64(trial))
			if err != nil {
				t.Fatalf("garbage traffic crashed the run: %v", err)
			}
			dec := Summarize(res.Outputs, res.IDs)
			if dec.Reject {
				if !central.HasCk(g, k) {
					t.Fatalf("garbage induced a false reject (k=%d)", k)
				}
				verifyWitness(t, g, k, graph.Edge{
					U: int(dec.Witness[0]), V: int(dec.Witness[len(dec.Witness)-1]),
				}, dec.Witness)
			}
		}
	}
}

// TestGarbageOnDetector: same for the deterministic detector; verdicts must
// match the clean run exactly when the corrupted node is not on the only
// cycle — here we just require soundness (reject ⇒ real cycle through e).
func TestGarbageOnDetector(t *testing.T) {
	rng := xrand.New(6)
	for trial := 0; trial < 10; trial++ {
		n := 7 + rng.Intn(6)
		g := graph.ConnectedGNM(n, n+rng.Intn(n), rng)
		e := g.Edges()[rng.Intn(g.M())]
		for _, k := range []int{4, 5, 6} {
			inner := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V)}
			prog := &corruptingProgram{inner: inner, badNode: network.ID(rng.Intn(n)), badEvery: 1}
			res, err := runOnce(g, prog, network.Options{}, uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			dec := Summarize(res.Outputs, res.IDs)
			if dec.Reject && !central.HasCkThroughEdge(g, k, e) {
				t.Fatalf("garbage induced a false per-edge reject (k=%d e=%v)", k, e)
			}
		}
	}
}

// TestDecodeCheckNeverPanics fuzzes the codec with arbitrary bytes: decoding
// must return an error or a value, never panic, and re-encoding a decoded
// message must round-trip (all IDs non-negative by construction).
func TestDecodeCheckNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		c, err := wire.DecodeCheck(data)
		if err != nil {
			return true
		}
		// Valid decode: must re-encode to the same bytes.
		re := wire.EncodeCheck(c)
		if len(re) != len(data) {
			return false
		}
		for i := range re {
			if re[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorSilentNode: a node that never sends (crash-stop before round
// 1) cannot cause false rejects, and cycles avoiding it are still found.
func TestDetectorSilentNode(t *testing.T) {
	// Two vertex-disjoint C5s sharing nothing, connected by a bridge.
	b := graph.NewBuilder(11)
	b.AddCycle(0, 1, 2, 3, 4)
	b.AddCycle(5, 6, 7, 8, 9)
	b.AddEdge(4, 10)
	b.AddEdge(10, 5)
	g := b.Build()
	inner := &EdgeDetector{K: 5, U: 0, V: 1}
	// Silence node 7 (on the OTHER cycle): detection of cycle A unaffected.
	prog := &corruptingProgram{inner: inner, badNode: 7, badEvery: 1}
	res, err := runOnce(g, prog, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Summarize(res.Outputs, res.IDs).Reject {
		t.Fatal("corruption far from the cycle suppressed detection")
	}
	// Silence node 2 (ON the checked cycle): the only C5 through {0,1} is
	// broken; the detector must now accept (completeness needs honest
	// relays, soundness never breaks).
	prog = &corruptingProgram{inner: inner, badNode: 2, badEvery: 1}
	res, err = runOnce(g, prog, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Summarize(res.Outputs, res.IDs).Reject {
		t.Fatal("detection reported despite the relay being silenced")
	}
}

// TestSummarizeManyRejectorsDescendingIDs: Summarize sorts the rejecting
// IDs in O(r log r). The public API accepts any distinct ID assignment, so
// rejecting vertices need not come in ID order; on this input (65,536
// rejectors in descending ID order) a quadratic sort takes seconds, where
// an O(r log r) one needs milliseconds.
func TestSummarizeManyRejectorsDescendingIDs(t *testing.T) {
	const n = 1 << 16
	outputs := make([]any, n)
	ids := make([]ID, n)
	for v := range outputs {
		ids[v] = ID(n - 1 - v)
		outputs[v] = &Verdict{Reject: true, Witness: []ID{ids[v]}}
	}
	start := time.Now()
	d := Summarize(outputs, ids)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Summarize of %d rejectors took %v; want well under a second", n, el)
	}
	if !d.Reject || len(d.RejectingIDs) != n || !slices.IsSorted(d.RejectingIDs) {
		t.Fatalf("RejectingIDs not the %d ascending IDs (reject %v, %d IDs)", n, d.Reject, len(d.RejectingIDs))
	}
	if len(d.Witness) != 1 || d.Witness[0] != 0 {
		t.Fatalf("witness %v, want the smallest rejecting ID's ([0])", d.Witness)
	}
}
