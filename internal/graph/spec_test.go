package graph

import (
	"strings"
	"testing"
)

func TestBuildGenSpecs(t *testing.T) {
	cases := []struct {
		spec string
		n, m int
	}{
		{"cycle:8", 8, 8},
		{"path:5", 5, 4},
		{"wheel:7", 7, 12},
		{"complete:5", 5, 10},
		{"grid:3,4", 12, 17},
		{"torus:3,3", 9, 18},
		{"hypercube:3", 8, 12},
		{"kbipartite:2,3", 5, 6},
		{"theta:4,3", 10, 12},
		{"gnm:20,40", 20, 40},
	}
	for _, c := range cases {
		g, note, err := BuildGen(c.spec, 5, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n || g.M() != c.m || note != "" {
			t.Errorf("%s: got (n=%d,m=%d,note %q) want (%d,%d,no note)", c.spec, g.N(), g.M(), note, c.n, c.m)
		}
	}
}

func TestBuildGenRandomFamilies(t *testing.T) {
	g, _, err := BuildGen("tree:30", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 || g.M() != 29 || !Connected(g) {
		t.Fatalf("tree wrong: n=%d m=%d", g.N(), g.M())
	}
	g, note, err := BuildGen("far:60,0.05", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 60 || !strings.Contains(note, "edge-disjoint C5") {
		t.Fatalf("far n=%d, note %q", g.N(), note)
	}
	g, note, err = BuildGen("planted:30,3", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 30 || !strings.HasPrefix(note, "planted C4 through edge {") {
		t.Fatalf("planted n=%d, note %q", g.N(), note)
	}
}

func TestBuildGenErrors(t *testing.T) {
	bad := []string{
		"bogus:3",
		"cycle",      // missing arg
		"cycle:1,2",  // extra arg
		"cycle:12,5", // extra arg
		"grid:3",     // missing arg
		"cycle:x",    // non-numeric
		"cycle:12.7", // non-integer
		"far:60.5,0.05",
		"far:60,x",
		"cycle:2",        // the generator panics: a cycle needs 3 vertices
		"gnm:5,100",      // more edges than K_5 has
		"far:60,0.5",     // ε past 1/k
		"planted:3,1",    // fewer vertices than the planted C5
		"torus:2,5",      // the generator refuses dimensions below 3
		"hypercube:-1,2", // extra arg and a negative one
	}
	for _, spec := range bad {
		g, _, err := BuildGen(spec, 5, 1)
		if err == nil || g != nil {
			t.Errorf("%s: got graph %v, error %v; want only an error", spec, g, err)
		}
	}
}
