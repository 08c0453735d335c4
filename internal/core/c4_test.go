package core

import (
	"testing"

	"cycledetect/internal/central"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// TestC4TesterOneSided: C4-free graphs are never rejected.
func TestC4TesterOneSided(t *testing.T) {
	rng := xrand.New(1)
	graphs := []*graph.Graph{
		graph.Cycle(5),
		graph.Cycle(9),
		graph.Complete(3),
		graph.RandomTree(25, rng),
		graph.Theta(6, 3, rng), // girth 6
	}
	for gi, g := range graphs {
		if central.HasCk(g, 4) {
			t.Fatalf("test setup: graph %d has a C4", gi)
		}
		for seed := uint64(0); seed < 6; seed++ {
			res, err := runOnce(g, &C4Tester{Reps: 60}, network.Options{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if Summarize(res.Outputs, res.IDs).Reject {
				t.Fatalf("graph %d seed %d: false C4 reject", gi, seed)
			}
		}
	}
}

// TestC4TesterDetects: C4-rich graphs are rejected with the advertised
// amplification, and witnesses are genuine 4-cycles.
func TestC4TesterDetects(t *testing.T) {
	rng := xrand.New(2)
	targets := []*graph.Graph{
		graph.CompleteBipartite(5, 5),
		graph.Grid(5, 5),
		mustFar(graph.FarFromCkFree(48, 4, 0.08, rng)),
	}
	for gi, g := range targets {
		hits := 0
		const trials = 8
		for s := 0; s < trials; s++ {
			res, err := runOnce(g, &C4Tester{Eps: 0.1}, network.Options{}, uint64(100*gi+s))
			if err != nil {
				t.Fatal(err)
			}
			dec := Summarize(res.Outputs, res.IDs)
			if !dec.Reject {
				continue
			}
			hits++
			w := dec.Witness
			if len(w) != 4 {
				t.Fatalf("graph %d: witness %v", gi, w)
			}
			for i := range w {
				if !g.HasEdge(int(w[i]), int(w[(i+1)%4])) {
					t.Fatalf("graph %d: witness %v not a C4", gi, w)
				}
			}
		}
		if 3*hits < 2*trials {
			t.Fatalf("graph %d: detected %d/%d < 2/3", gi, hits, trials)
		}
	}
}

func mustFar(g *graph.Graph, q int) *graph.Graph { return g }

// TestC4TesterRoundGap: the baseline's O(1/ε²) rounds versus our O(1/ε).
func TestC4TesterRoundGap(t *testing.T) {
	b1 := (&C4Tester{Eps: 0.2}).Rounds(0, 0)
	b2 := (&C4Tester{Eps: 0.05}).Rounds(0, 0)
	o1 := (&Tester{K: 4, Eps: 0.2}).Rounds(0, 0)
	o2 := (&Tester{K: 4, Eps: 0.05}).Rounds(0, 0)
	if ratio := float64(b2) / float64(b1); ratio < 12 || ratio > 20 {
		t.Fatalf("baseline scaling %.1f, want ~16", ratio)
	}
	if ratio := float64(o2) / float64(o1); ratio < 3 || ratio > 5 {
		t.Fatalf("our scaling %.1f, want ~4", ratio)
	}
	if b2 <= o2 {
		t.Fatalf("baseline %d rounds should exceed ours %d at eps=0.05", b2, o2)
	}
}

// TestC4TesterBandwidth: two-ID messages stay tiny at scale.
func TestC4TesterBandwidth(t *testing.T) {
	rng := xrand.New(3)
	g := graph.ConnectedGNM(300, 900, rng)
	res, err := runOnce(g, &C4Tester{Reps: 10}, network.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageBits > 96 {
		t.Fatalf("C4 probe message %d bits", res.Stats.MaxMessageBits)
	}
}

// TestC4TesterDegenerate: paths, stars and tiny graphs are safe.
func TestC4TesterDegenerate(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(2), graph.Path(4), graph.Star(6)} {
		res, err := runOnce(g, &C4Tester{Reps: 12}, network.Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if Summarize(res.Outputs, res.IDs).Reject {
			t.Fatal("C4-free degenerate graph rejected")
		}
	}
}
