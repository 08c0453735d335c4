package network

import (
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/xrand"
)

// TestSameProgram exercises the node-cache guard, including the
// non-comparable program type that a bare == would panic on. The
// behavioral tests live in the external network_test package.
func TestSameProgram(t *testing.T) {
	a := &countProgram{}
	b := &countProgram{}
	if !sameProgram(a, a) {
		t.Fatal("identical pointer not recognized")
	}
	if sameProgram(a, b) {
		t.Fatal("distinct values must not be conflated")
	}
	if sameProgram(nil, nil) || sameProgram(a, nil) {
		t.Fatal("nil programs are never the same")
	}
	f1, f2 := funcProgram{rounds: func(n, m int) int { return 1 }}, funcProgram{rounds: func(n, m int) int { return 1 }}
	if sameProgram(f1, f2) || sameProgram(f1, f1) {
		t.Fatal("non-comparable program types must compare unequal, not panic")
	}
}

// countProgram is non-empty so distinct allocations have distinct
// addresses (zero-size allocations may share one).
type countProgram struct{ rounds int }

func (p *countProgram) Rounds(n, m int) int   { return p.rounds }
func (p *countProgram) NewNode(NodeInfo) Node { return nil }

// funcProgram is a deliberately non-comparable Program.
type funcProgram struct {
	rounds func(n, m int) int
}

func (p funcProgram) Rounds(n, m int) int   { return p.rounds(n, m) }
func (p funcProgram) NewNode(NodeInfo) Node { return nil }

// TestRevPortInvertsPorts checks the port tables buildTopology fills by
// cursor: for every port p of every vertex v, with w the neighbor behind
// it, v sits at position revPort[v][p] of w's neighbor list and
// nbrIDs[v][p] is w's ID, under identity and permuted IDs.
func TestRevPortInvertsPorts(t *testing.T) {
	rng := xrand.New(11)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(9)},
		{"complete", graph.Complete(7)},
		{"path", graph.Path(12)},
		{"tree", graph.RandomTree(40, rng)},
		{"gnm", graph.GNM(60, 240, rng)},
	} {
		g := tc.g
		permuted := make([]ID, g.N())
		for v, p := range rng.Perm(g.N()) {
			permuted[v] = ID(3*p + 1)
		}
		for _, ids := range [][]ID{nil, permuted} {
			topo, err := buildTopology(g, ids)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for v := range g.N() {
				for p, w := range g.Neighbors(v) {
					if back := g.Neighbors(int(w))[topo.revPort[v][p]]; int(back) != v {
						t.Fatalf("%s (ids %v): revPort[%d][%d] = %d leads back to %d, not %d",
							tc.name, ids != nil, v, p, topo.revPort[v][p], back, v)
					}
					want := ID(w)
					if ids != nil {
						want = ids[w]
					}
					if topo.nbrIDs[v][p] != want {
						t.Fatalf("%s (ids %v): nbrIDs[%d][%d] = %d, want %d",
							tc.name, ids != nil, v, p, topo.nbrIDs[v][p], want)
					}
				}
			}
		}
	}
}
