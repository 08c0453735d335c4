package core

import (
	"fmt"
	"testing"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// runDetector runs the per-edge detector on g for edge e (vertex indices,
// identity ID assignment) and summarizes the outputs.
func runDetector(t *testing.T, g *graph.Graph, k int, e graph.Edge) Decision {
	t.Helper()
	prog := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V)}
	res, err := runOnce(g, prog, network.Options{}, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return Summarize(res.Outputs, res.IDs)
}

// verifyWitness checks that a reported witness is a genuine k-cycle through
// e: k distinct vertices, consecutive (and wrap-around) adjacency, with the
// candidate edge appearing as the head/tail pair.
func verifyWitness(t *testing.T, g *graph.Graph, k int, e graph.Edge, w []ID) {
	t.Helper()
	if len(w) != k {
		t.Fatalf("witness %v has %d nodes, want %d", w, len(w), k)
	}
	seen := make(map[ID]bool, k)
	for _, id := range w {
		if seen[id] {
			t.Fatalf("witness %v repeats node %d", w, id)
		}
		seen[id] = true
	}
	for i := range w {
		a, b := int(w[i]), int(w[(i+1)%k])
		if !g.HasEdge(a, b) {
			t.Fatalf("witness %v: {%d,%d} is not an edge", w, a, b)
		}
	}
	head, tail := int(w[0]), int(w[k-1])
	if !(head == e.U && tail == e.V) && !(head == e.V && tail == e.U) {
		t.Fatalf("witness %v does not start/end at edge %v", w, e)
	}
}

// TestDetectorMatchesOracleExhaustive is the central correctness test: on
// every connected graph over small vertex counts (random sample of
// edge-subsets plus all spanning structures) and every edge, for k=3..7, the
// detector's verdict must equal the centralized oracle's "∃ Ck through e" —
// in both directions, establishing 1-sidedness AND completeness (Lemma 2).
func TestDetectorMatchesOracleExhaustive(t *testing.T) {
	// All graphs on 5 vertices: 2^10 edge subsets.
	for mask := 0; mask < 1024; mask++ {
		g := graphFromMask(5, mask)
		if !graph.Connected(g) {
			continue
		}
		for k := 3; k <= 5; k++ {
			checkAllEdges(t, g, k, fmt.Sprintf("n=5 mask=%d", mask))
		}
	}
}

// TestDetectorMatchesOracleRandom extends the cross-check to larger random
// graphs where exhaustive enumeration over graphs is impossible.
func TestDetectorMatchesOracleRandom(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(7)     // 6..12 vertices
		extra := rng.Intn(2 * n) // density knob
		m := n - 1 + extra
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.ConnectedGNM(n, m, rng)
		for k := 3; k <= 8 && k <= n; k++ {
			checkAllEdges(t, g, k, fmt.Sprintf("trial=%d n=%d m=%d", trial, n, m))
		}
	}
}

func checkAllEdges(t *testing.T, g *graph.Graph, k int, label string) {
	t.Helper()
	for _, e := range g.Edges() {
		want := central.HasCkThroughEdge(g, k, e)
		dec := runDetector(t, g, k, e)
		if dec.Reject != want {
			t.Fatalf("%s k=%d edge=%v: detector=%v oracle=%v", label, k, e, dec.Reject, want)
		}
		if dec.Reject {
			verifyWitness(t, g, k, e, dec.Witness)
		}
	}
}

func graphFromMask(n, mask int) *graph.Graph {
	b := graph.NewBuilder(n)
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<bit) != 0 {
				b.AddEdge(u, v)
			}
			bit++
		}
	}
	return b.Build()
}

// TestDetectorPureCycle plants exactly one Ck (the cycle graph itself) and
// checks every edge detects it — the paper's "even a single k-cycle through
// e is detected" claim in its purest form.
func TestDetectorPureCycle(t *testing.T) {
	for k := 3; k <= 11; k++ {
		g := graph.Cycle(k)
		for _, e := range g.Edges() {
			dec := runDetector(t, g, k, e)
			if !dec.Reject {
				t.Fatalf("C%d edge %v: cycle not detected", k, e)
			}
			verifyWitness(t, g, k, e, dec.Witness)
		}
	}
}

// TestDetectorWrongLength runs the detector for k on cycles of length != k;
// it must accept (1-sidedness at the exact-length property).
func TestDetectorWrongLength(t *testing.T) {
	for k := 3; k <= 9; k++ {
		for clen := 3; clen <= 12; clen++ {
			if clen == k {
				continue
			}
			g := graph.Cycle(clen)
			for _, e := range g.Edges() {
				if dec := runDetector(t, g, k, e); dec.Reject {
					t.Fatalf("k=%d on C%d edge %v: false reject, witness %v",
						k, clen, e, dec.Witness)
				}
			}
		}
	}
}

// TestDetectorNonEdge runs the detector for a candidate pair that is not an
// edge; nothing may be detected even though cycles of length k exist.
func TestDetectorNonEdge(t *testing.T) {
	g := graph.Wheel(8) // cycles of all lengths 3..7
	for k := 3; k <= 7; k++ {
		// {1, 4} is a rim chord, not an edge of the wheel (rim is 1..7).
		dec := runDetector(t, g, k, graph.Edge{U: 1, V: 4})
		if g.HasEdge(1, 4) {
			t.Fatal("test assumption broken: {1,4} is an edge")
		}
		if dec.Reject {
			t.Fatalf("k=%d: rejected for non-edge candidate", k)
		}
	}
}

// TestDetectorFig1 reproduces the paper's Figure 1: a C5 through {u,v} with
// two extra crossing edges, where node z must detect at round 2, and the
// naive-forwarding hazard discussed in §3.2 (x and y both receiving both
// IDs) is present.
func TestDetectorFig1(t *testing.T) {
	// Vertices: u=0, v=1, x=2, y=3, z=4.
	// Edges per the figure: {u,v}, {u,x}, {v,y}, {x,z}, {y,z} (the C5) plus
	// the crossing edges {u,y} and {v,x}.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 4)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	g := b.Build()
	dec := runDetector(t, g, 5, graph.Edge{U: 0, V: 1})
	if !dec.Reject {
		t.Fatal("Figure-1 C5 not detected")
	}
	if len(dec.RejectingIDs) == 0 {
		t.Fatal("no rejecting node recorded")
	}
	// z (ID 4) is the antipodal node and must be among the rejecters.
	found := false
	for _, id := range dec.RejectingIDs {
		if id == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("antipodal node z=4 did not reject (rejecting: %v)", dec.RejectingIDs)
	}
	verifyWitness(t, g, 5, graph.Edge{U: 0, V: 1}, dec.Witness)
}

// TestDetectorMessageBound verifies Lemma 3 on graphs engineered to maximize
// traffic (theta graphs and complete bipartite graphs): in pruned mode every
// node sends at most (k−t+1)^(t−1) sequences at round t.
func TestDetectorMessageBound(t *testing.T) {
	rng := xrand.New(3)
	graphs := map[string]*graph.Graph{
		"theta8x3":  graph.Theta(8, 3, rng),
		"theta12x4": graph.Theta(12, 4, rng),
		"K5,9":      graph.CompleteBipartite(5, 9),
		"K9":        graph.Complete(9),
		"wheel12":   graph.Wheel(12),
	}
	for name, g := range graphs {
		for k := 4; k <= 8; k++ {
			for _, e := range g.Edges()[:3] {
				dec := runDetector(t, g, k, e)
				for tr, got := range dec.MaxSeqsPerRound {
					bound := paperBound(k, tr+1)
					if uint64(got) > bound {
						t.Fatalf("%s k=%d edge=%v round=%d: %d sequences > bound %d",
							name, k, e, tr+1, got, bound)
					}
				}
			}
		}
	}
}

func paperBound(k, t int) uint64 {
	res := uint64(1)
	for i := 0; i < t-1; i++ {
		res *= uint64(k - t + 1)
	}
	return res
}

// TestDetectorMatchesLockstep cross-checks a sharded engine run against
// the lockstep harness on the deterministic detector: identical outputs,
// identical traffic.
func TestDetectorMatchesLockstep(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(6)
		g := graph.ConnectedGNM(n, n+rng.Intn(n), rng)
		for k := 3; k <= 7; k++ {
			for _, e := range g.Edges() {
				assertMatchesLockstep(t, g, &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V)}, 0)
			}
		}
	}
}

// TestDetectorIDPermutation re-labels vertices with scattered IDs and checks
// verdicts are unchanged (the algorithm must not depend on IDs being dense).
func TestDetectorIDPermutation(t *testing.T) {
	rng := xrand.New(5)
	g := graph.Wheel(9)
	ids := make([]network.ID, g.N())
	perm := rng.Perm(g.N())
	for v, p := range perm {
		ids[v] = network.ID(100 + 37*p) // scattered, poly(n) range
	}
	for k := 3; k <= 8; k++ {
		for _, e := range g.Edges() {
			want := central.HasCkThroughEdge(g, k, e)
			prog := &EdgeDetector{K: k, U: ids[e.U], V: ids[e.V]}
			res, err := runOnce(g, prog, network.Options{IDs: ids}, 0)
			if err != nil {
				t.Fatal(err)
			}
			dec := Summarize(res.Outputs, res.IDs)
			if dec.Reject != want {
				t.Fatalf("k=%d e=%v with permuted IDs: got %v want %v", k, e, dec.Reject, want)
			}
		}
	}
}

// TestNaiveDetectorAlsoCorrect sanity-checks that the naive baseline detects
// the same instances (it only ever forwards MORE sequences, so completeness
// holds trivially; 1-sidedness still needs the final pairing to be sound).
func TestNaiveDetectorAlsoCorrect(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(5)
		g := graph.ConnectedGNM(n, n+rng.Intn(n), rng)
		for k := 3; k <= 6; k++ {
			for _, e := range g.Edges() {
				want := central.HasCkThroughEdge(g, k, e)
				prog := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V), Mode: ModeNaive}
				res, err := runOnce(g, prog, network.Options{}, 0)
				if err != nil {
					t.Fatal(err)
				}
				dec := Summarize(res.Outputs, res.IDs)
				if dec.Reject != want {
					t.Fatalf("naive k=%d e=%v: got %v want %v", k, e, dec.Reject, want)
				}
			}
		}
	}
}

// TestNaiveExplodesPrunedDoesNot quantifies §3.2's motivation on complete
// bipartite graphs K_{d,d}: every node of the side opposite an endpoint of
// the candidate edge sees d−1 vertex-disjoint length-2 paths from that
// endpoint, so at round 3 the naive detector forwards Θ(d) sequences per
// message, while the pruned detector stays under Lemma 3's k-dependent
// constant regardless of d.
func TestNaiveExplodesPrunedDoesNot(t *testing.T) {
	k := 6
	bound := int(paperBound(k, 2))
	for _, b := range []uint64{paperBound(k, 3)} {
		if int(b) > bound {
			bound = int(b)
		}
	}
	var naiveGrowth []int
	for _, d := range []int{6, 12, 24} {
		g := graph.CompleteBipartite(d, d)
		e := graph.Edge{U: 0, V: d} // a left-right edge
		naive := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V), Mode: ModeNaive}
		pruned := &EdgeDetector{K: k, U: ID(e.U), V: ID(e.V)}
		rn, err := runOnce(g, naive, network.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := runOnce(g, pruned, network.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		dn := Summarize(rn.Outputs, rn.IDs)
		dp := Summarize(rp.Outputs, rp.IDs)
		if !dn.Reject || !dp.Reject {
			t.Fatalf("d=%d: C6 through %v must be detected (naive=%v pruned=%v)",
				d, e, dn.Reject, dp.Reject)
		}
		if dp.MaxSeqs > bound {
			t.Fatalf("d=%d: pruned MaxSeqs=%d exceeds Lemma 3 bound %d", d, dp.MaxSeqs, bound)
		}
		naiveGrowth = append(naiveGrowth, dn.MaxSeqs)
	}
	for i := 1; i < len(naiveGrowth); i++ {
		if naiveGrowth[i] <= naiveGrowth[i-1] {
			t.Fatalf("naive max sequences should grow with d: %v", naiveGrowth)
		}
	}
	if last := naiveGrowth[len(naiveGrowth)-1]; last < 20 {
		t.Fatalf("expected naive explosion on K_{24,24}, got max %d sequences", last)
	}
}
