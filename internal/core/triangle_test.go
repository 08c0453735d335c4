package core

import (
	"testing"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// TestTriangleTesterOneSided: triangle-free graphs are never rejected, by
// any seed — the [7]-style baseline must be as 1-sided as the main tester.
func TestTriangleTesterOneSided(t *testing.T) {
	rng := xrand.New(1)
	graphs := []*graph.Graph{
		graph.Cycle(9),
		graph.Grid(4, 5),
		graph.Hypercube(4),
		graph.CompleteBipartite(4, 6),
		graph.RandomTree(25, rng),
	}
	for gi, g := range graphs {
		if central.CountTriangles(g) != 0 {
			t.Fatalf("test setup: graph %d has triangles", gi)
		}
		for seed := uint64(0); seed < 6; seed++ {
			res, err := runOnce(g, &TriangleTester{Reps: 50}, network.Options{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			dec := Summarize(res.Outputs, res.IDs)
			if dec.Reject {
				t.Fatalf("graph %d seed %d: false triangle reject", gi, seed)
			}
		}
	}
}

// TestTriangleTesterDetects: on triangle-rich graphs the baseline finds a
// triangle with its advertised amplification.
func TestTriangleTesterDetects(t *testing.T) {
	rng := xrand.New(2)
	g, _ := graph.FarFromCkFree(45, 3, 0.08, rng)
	hits := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		res, err := runOnce(g, &TriangleTester{Eps: 0.08}, network.Options{}, uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		dec := Summarize(res.Outputs, res.IDs)
		if dec.Reject {
			hits++
			// The witness must be a genuine triangle.
			w := dec.Witness
			if len(w) != 3 {
				t.Fatalf("witness %v", w)
			}
			for i := range w {
				if !g.HasEdge(int(w[i]), int(w[(i+1)%3])) {
					t.Fatalf("witness %v not a triangle", w)
				}
			}
		}
	}
	if 3*hits < 2*trials {
		t.Fatalf("baseline detected %d/%d < 2/3 on an ε-far instance", hits, trials)
	}
}

// TestTriangleTesterRoundGap documents the asymptotic gap the paper closes:
// the baseline's round count grows quadratically in 1/ε, the paper's tester
// linearly.
func TestTriangleTesterRoundGap(t *testing.T) {
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		base := (&TriangleTester{Eps: eps}).Rounds(100, 300)
		ours := (&Tester{K: 3, Eps: eps}).Rounds(100, 300)
		if base <= ours {
			t.Fatalf("eps=%.2f: baseline %d rounds should exceed ours %d", eps, base, ours)
		}
	}
	// Quadratic vs linear: quartering eps should roughly 16x the baseline
	// but only 4x ours.
	b1 := (&TriangleTester{Eps: 0.2}).Rounds(0, 0)
	b2 := (&TriangleTester{Eps: 0.05}).Rounds(0, 0)
	o1 := (&Tester{K: 3, Eps: 0.2}).Rounds(0, 0)
	o2 := (&Tester{K: 3, Eps: 0.05}).Rounds(0, 0)
	if ratio := float64(b2) / float64(b1); ratio < 12 || ratio > 20 {
		t.Fatalf("baseline scaling %.1f, want ~16", ratio)
	}
	if ratio := float64(o2) / float64(o1); ratio < 3 || ratio > 5 {
		t.Fatalf("our scaling %.1f, want ~4", ratio)
	}
}

// TestTriangleTesterBandwidth: probes are single IDs — far below the log n
// budget even with every node probing.
func TestTriangleTesterBandwidth(t *testing.T) {
	rng := xrand.New(3)
	g := graph.ConnectedGNM(200, 800, rng)
	res, err := runOnce(g, &TriangleTester{Reps: 20}, network.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageBits > 64 {
		t.Fatalf("probe message %d bits", res.Stats.MaxMessageBits)
	}
}

// TestTriangleTesterDegenerate: leaves and 2-node graphs neither crash nor
// reject.
func TestTriangleTesterDegenerate(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(2), graph.Star(5), graph.Path(3)} {
		res, err := runOnce(g, &TriangleTester{Reps: 10}, network.Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if Summarize(res.Outputs, res.IDs).Reject {
			t.Fatal("triangle-free degenerate graph rejected")
		}
	}
}

// TestTriangleTesterPanicsWithoutParams documents the contract.
func TestTriangleTesterPanicsWithoutParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&TriangleTester{}).Repetitions()
}
