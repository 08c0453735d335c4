package graph

import (
	"errors"
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
		"cycle:2",          // the generator panics: a cycle needs 3 vertices
		"gnm:5,100",        // more edges than K_5 has
		"far:60,0.5",       // ε past 1/k
		"planted:3,1",      // fewer vertices than the planted C5
		"torus:2,5",        // the generator refuses dimensions below 3
		"hypercube:-1,2",   // extra arg and a negative one
		"complete:1449",    // 1,049,076 edges, over MaxFamilyEdges
		"hypercube:17",     // 1,114,112 edges
		"grid:-1,-5",       // negative dimensions
		"gnm:0,0",          // no vertices
		"planted:8,100",    // more extra edges than K_8 has room for
		"grid:1048578,0",   // no vertices, but a loop over 2^20+2 rows
		"gnm:4294967296,5", // n-1 past the edge limit, whatever m says
	}
	for _, spec := range bad {
		g, _, err := BuildGen(spec, 5, 1)
		if err == nil || g != nil {
			t.Errorf("%s: got graph %v, error %v; want only an error", spec, g, err)
		}
	}
}

// TestFamilySpec: the JSON form resolves to the same Spec and key as the
// -gen form, resolves gnm's default m, drops what a family does not read,
// and offers only its five families.
func TestFamilySpec(t *testing.T) {
	for _, tc := range []struct {
		family   string
		n, m, k  int
		eps      float64
		seed     uint64
		gen, key string
	}{
		{"gnm", 256, 1024, 7, 0.1, 7, "gnm:256,1024", "gnm/n=256/m=1024/seed=7"},
		{"gnm", 128, 0, 5, 0.1, 3, "gnm:128,512", "gnm/n=128/m=512/seed=3"},
		{"tree", 64, 5, 5, 0.1, 1, "tree:64", "tree/n=64/seed=1"},
		{"cycle", 64, 0, 5, 0.1, 2, "cycle:64", "cycle/n=64"},
		{"complete", 16, 40, 5, 0.1, 9, "complete:16", "complete/n=16"},
		{"far", 120, 0, 5, 0.05, 1, "far:120,0.05", "far/n=120/seed=1/k=5/eps=0.05"},
		{"far", 300, 0, 3, 1e-05, 4, "far:300,1e-05", "far/n=300/seed=4/k=3/eps=1e-05"},
	} {
		s, err := FamilySpec(tc.family, tc.n, tc.m, tc.k, tc.eps, tc.seed)
		if err != nil || s.Key() != tc.key {
			t.Errorf("%s: key %q (%v), want %q", tc.gen, s.Key(), err, tc.key)
		}
		if gen, err := parseGen(tc.gen, tc.k, tc.seed); err != nil || gen.Key() != tc.key {
			t.Errorf("%s: -gen form keyed %q (%v), want %q", tc.gen, gen.Key(), err, tc.key)
		}
	}
	for _, family := range []string{"path", "wheel", "planted", "bogus", ""} {
		if _, err := FamilySpec(family, 8, 0, 5, 0.1, 1); err == nil || !strings.Contains(err.Error(), "unknown graph family") {
			t.Errorf("%q: err = %v, want the unknown-family refusal", family, err)
		}
	}
	// far's refusal for its k and eps alone is the one a sweep skips.
	if _, err := FamilySpec("far", 10, 0, 9, 0.5, 1); !errors.Is(err, ErrCannotPlant) {
		t.Errorf("far n=10 at k=9, eps=0.5: err = %v, want ErrCannotPlant", err)
	}
	if _, err := FamilySpec("gnm", 10, 100, 9, 0.5, 1); err == nil || errors.Is(err, ErrCannotPlant) {
		t.Errorf("gnm n=10 m=100: err = %v, want a refusal that is not ErrCannotPlant", err)
	}
}

// genSeeds has one buildable -gen spec per family of the catalog.
var genSeeds = map[string]string{
	"gnm": "gnm:12,30", "far": "far:60,0.05", "tree": "tree:9", "cycle": "cycle:7",
	"complete": "complete:6", "path": "path:4", "wheel": "wheel:6", "hypercube": "hypercube:4",
	"grid": "grid:3,5", "torus": "torus:3,4", "kbipartite": "kbipartite:2,5", "theta": "theta:3,4",
	"planted": "planted:12,6",
}

// FuzzGenSpec: for any -gen string and k, parsing or validation refuses it,
// or the build finishes without a panic and the graph has at most its
// family's edge bound, which is within MaxFamilyEdges, and at most one
// vertex more. A build whose bound passes 2^14 edges is skipped, so that
// execs stay fast.
func FuzzGenSpec(f *testing.F) {
	for name := range catalog {
		seed, ok := genSeeds[name]
		if !ok {
			f.Fatalf("family %s has no seed", name)
		}
		f.Add(seed, 5)
	}
	for _, seed := range []string{"cycle:2", "gnm:5,100", "complete:1449", "hypercube:17", "far:60,0.5", "planted:3,1", "path:0"} {
		f.Add(seed, 5)
	}
	f.Fuzz(func(t *testing.T, spec string, k int) {
		s, err := parseGen(spec, k, 1)
		if err != nil {
			return
		}
		fam, err := s.validate()
		if err != nil {
			return
		}
		m := max(fam.edges(s), 0) // a negative bound, as path:0's, allows no edge
		if m > MaxFamilyEdges {
			t.Fatalf("%s at k=%d validated with m <= %g", spec, k, m)
		}
		if m > 1<<14 {
			return
		}
		g, err := s.Build()
		if err != nil {
			t.Fatalf("%s at k=%d validated, then failed to build: %v", spec, k, err)
		}
		if float64(g.M()) > m || float64(g.N()) > m+1 {
			t.Fatalf("%s at k=%d built n=%d, m=%d; the catalog bounds m by %g", spec, k, g.N(), g.M(), m)
		}
	})
}
