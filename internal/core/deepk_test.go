package core

import (
	"testing"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// TestDetectorDeepK exercises the pruning at depth t = 5..6 (k = 10..13),
// where the witness-set search is at its deepest, on structured graphs with
// known answers.
func TestDetectorDeepK(t *testing.T) {
	rng := xrand.New(1)
	for _, k := range []int{10, 11, 12, 13} {
		// Pure cycle: must detect through every edge.
		g := graph.Cycle(k)
		dec := runDetector(t, g, k, graph.Edge{U: 0, V: 1})
		if !dec.Reject {
			t.Fatalf("C%d missed", k)
		}
		verifyWitness(t, g, k, graph.Edge{U: 0, V: 1}, dec.Witness)
		// Off-by-one cycles: must accept.
		for _, clen := range []int{k - 1, k + 1} {
			g := graph.Cycle(clen)
			if dec := runDetector(t, g, k, graph.Edge{U: 0, V: 1}); dec.Reject {
				t.Fatalf("k=%d false reject on C%d", k, clen)
			}
		}
		// Theta graph with paths of length k/2: even k yields k-cycles
		// from any two paths; check an edge at a terminal.
		if k%2 == 0 {
			th := graph.Theta(5, k/2, rng)
			e := th.Edges()[0]
			want := central.HasCkThroughEdge(th, k, e)
			dec := runDetector(t, th, k, e)
			if dec.Reject != want {
				t.Fatalf("theta k=%d: got %v want %v", k, dec.Reject, want)
			}
		}
	}
}

// TestDetectorDeepKMessageBound: Lemma 3 at k = 10 and 12 on a dense graph,
// where the per-round bound (k−t+1)^(t−1) is in the thousands but actual
// counts must still respect it.
func TestDetectorDeepKMessageBound(t *testing.T) {
	if testing.Short() {
		t.Skip("deep pruning stress")
	}
	g := graph.Complete(10)
	for _, k := range []int{10, 12} {
		e := g.Edges()[0]
		dec := runDetector(t, g, k, e)
		for tr, got := range dec.MaxSeqsPerRound {
			if uint64(got) > paperBound(k, tr+1) {
				t.Fatalf("k=%d round=%d: %d > %d", k, tr+1, got, paperBound(k, tr+1))
			}
		}
		// K10 has C10 (Hamiltonian) but no C12.
		want := central.HasCkThroughEdge(g, k, e)
		if dec.Reject != want {
			t.Fatalf("K10 k=%d: got %v want %v", k, dec.Reject, want)
		}
	}
}

// TestAdversarialIDAssignments: verdicts must be invariant under hostile ID
// layouts — reversed, clustered at huge offsets, and maximally spread — on
// the same topology. (IDs drive the edge-assignment rule and all tie-breaks,
// so this exercises every ordering path.)
func TestAdversarialIDAssignments(t *testing.T) {
	rng := xrand.New(4)
	g := graph.ConnectedGNM(14, 30, rng)
	layouts := map[string]func(v int) network.ID{
		"identity": func(v int) network.ID { return network.ID(v) },
		"reversed": func(v int) network.ID { return network.ID(g.N() - 1 - v) },
		"offset":   func(v int) network.ID { return network.ID(1<<40 + v) },
		"spread":   func(v int) network.ID { return network.ID(v * v * 1000) },
	}
	for k := 3; k <= 7; k++ {
		for _, e := range g.Edges()[:4] {
			want := central.HasCkThroughEdge(g, k, e)
			for name, layout := range layouts {
				ids := make([]network.ID, g.N())
				for v := range ids {
					ids[v] = layout(v)
				}
				prog := &EdgeDetector{K: k, U: ids[e.U], V: ids[e.V]}
				res, err := runOnce(g, prog, network.Options{IDs: ids}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if dec := Summarize(res.Outputs, res.IDs); dec.Reject != want {
					t.Fatalf("layout %s k=%d e=%v: got %v want %v", name, k, e, dec.Reject, want)
				}
			}
		}
	}
}

// TestTesterManyKsOneGraph: the full tester across every k on a fixed rich
// graph, checked against the oracle in the reject direction and against
// known-free ks in the accept direction.
func TestTesterManyKsOneGraph(t *testing.T) {
	// Petersen graph: girth 5; contains C5, C6, C8, C9 but no C3, C4, C7.
	b := graph.NewBuilder(10)
	outer := []int{0, 1, 2, 3, 4}
	for i := range outer {
		b.AddEdge(outer[i], outer[(i+1)%5])
		b.AddEdge(i, i+5)
	}
	// Inner pentagram: 5-6-7-8-9 connected as i -> i+2 mod 5.
	for i := 0; i < 5; i++ {
		b.AddEdge(5+i, 5+(i+2)%5)
	}
	g := b.Build()
	for k := 3; k <= 9; k++ {
		want := central.HasCk(g, k)
		prog := &Tester{K: k, Reps: 30}
		dec := runTester(t, g, prog, 5)
		if dec.Reject && !want {
			t.Fatalf("Petersen k=%d: false reject", k)
		}
		// With 30 repetitions on a 15-edge graph, a present cycle class is
		// found with near-certainty (every edge of the Petersen graph lies
		// on cycles of each present length by vertex-transitivity).
		if want && !dec.Reject {
			t.Fatalf("Petersen k=%d: cycle class missed across 30 repetitions", k)
		}
	}
}

// TestDetectorOnCirculants: circulant graphs C_n(1,2) contain cycles of
// every length 3..n through every edge (the chords make the instance
// cycle-saturated); the detector must agree with the oracle on all of them.
func TestDetectorOnCirculants(t *testing.T) {
	g := graph.Circulant(10, 1, 2)
	for k := 3; k <= 8; k++ {
		for _, e := range g.Edges()[:5] {
			want := central.HasCkThroughEdge(g, k, e)
			dec := runDetector(t, g, k, e)
			if dec.Reject != want {
				t.Fatalf("C10(1,2) k=%d e=%v: got %v want %v", k, e, dec.Reject, want)
			}
			if dec.Reject {
				verifyWitness(t, g, k, e, dec.Witness)
			}
		}
	}
	// Lollipop: cycles only inside the clique head.
	lp := graph.Lollipop(5, 5)
	tailEdge := graph.Edge{U: lp.N() - 2, V: lp.N() - 1}
	for k := 3; k <= 6; k++ {
		if dec := runDetector(t, lp, k, tailEdge); dec.Reject {
			t.Fatalf("lollipop tail edge on a C%d?", k)
		}
	}
	headEdge := graph.Edge{U: 0, V: 1}
	for k := 3; k <= 5; k++ {
		if dec := runDetector(t, lp, k, headEdge); !dec.Reject {
			t.Fatalf("lollipop clique C%d through %v missed", k, headEdge)
		}
	}
}
