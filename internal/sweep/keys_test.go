package sweep

import (
	"testing"

	"cycledetect/internal/graph"
)

// keyed is one (spec, k, eps, seed) input of FamilyKey.
type keyed struct {
	gs   GraphSpec
	k    int
	eps  float64
	seed uint64
}

func (x keyed) key() string { return FamilyKey(x.gs, x.k, x.eps, x.seed) }

// TestFamilyKeyCanonical: specs that differ only in a field BuildGraph does
// not read build the same graph and share one key; specs that build
// different graphs get different keys.
func TestFamilyKeyCanonical(t *testing.T) {
	same := []struct {
		name string
		a, b keyed
	}{
		{"tree ignores m",
			keyed{GraphSpec{Family: "tree", N: 64}, 5, 0.1, 1},
			keyed{GraphSpec{Family: "tree", N: 64, M: 5}, 5, 0.1, 1}},
		{"gnm resolves the 4n default",
			keyed{GraphSpec{Family: "gnm", N: 64}, 5, 0.1, 3},
			keyed{GraphSpec{Family: "gnm", N: 64, M: 256}, 5, 0.1, 3}},
		{"cycle ignores the seed",
			keyed{GraphSpec{Family: "cycle", N: 64}, 5, 0.1, 1},
			keyed{GraphSpec{Family: "cycle", N: 64}, 5, 0.1, 2}},
		{"complete ignores seed and m",
			keyed{GraphSpec{Family: "complete", N: 16}, 5, 0.1, 1},
			keyed{GraphSpec{Family: "complete", N: 16, M: 40}, 5, 0.1, 9}},
	}
	for _, c := range same {
		if ka, kb := c.a.key(), c.b.key(); ka != kb {
			t.Errorf("%s: keys differ: %q vs %q", c.name, ka, kb)
		}
		ga, err := BuildGraph(c.a.gs, c.a.k, c.a.eps, c.a.seed)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := BuildGraph(c.b.gs, c.b.k, c.b.eps, c.b.seed)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(ga, gb) {
			t.Errorf("%s: one key names two different graphs", c.name)
		}
	}

	far := GraphSpec{Family: "far", N: 64}
	tree := GraphSpec{Family: "tree", N: 64}
	gnm := GraphSpec{Family: "gnm", N: 64, M: 256}
	differ := []struct {
		name string
		a, b keyed
	}{
		{"far varies with k", keyed{far, 5, 0.05, 1}, keyed{far, 7, 0.05, 1}},
		{"far varies with eps", keyed{far, 5, 0.05, 1}, keyed{far, 5, 0.02, 1}},
		{"tree varies with the seed", keyed{tree, 5, 0.1, 1}, keyed{tree, 5, 0.1, 2}},
		{"gnm varies with the seed", keyed{gnm, 5, 0.1, 1}, keyed{gnm, 5, 0.1, 2}},
		{"gnm varies with m", keyed{gnm, 5, 0.1, 1}, keyed{GraphSpec{Family: "gnm", N: 64, M: 128}, 5, 0.1, 1}},
	}
	for _, c := range differ {
		if c.a.key() == c.b.key() {
			t.Errorf("%s: both specs keyed %q", c.name, c.a.key())
		}
	}

	// The `make load` graph: its key is what /stats lists for it, so it
	// must not change.
	if got := FamilyKey(GraphSpec{Family: "gnm", N: 256, M: 1024}, 7, 0.1, 7); got != "gnm/n=256/m=1024/seed=7" {
		t.Errorf("make-load key = %q, want %q", got, "gnm/n=256/m=1024/seed=7")
	}
}
