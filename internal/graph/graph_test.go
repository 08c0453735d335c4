package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cycledetect/internal/xrand"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if !b.AddEdge(0, 1) {
		t.Fatal("new edge reported as duplicate")
	}
	if b.AddEdge(1, 0) {
		t.Fatal("reversed duplicate accepted")
	}
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.HasEdge(0, 3) || g.HasEdge(2, 2) {
		t.Fatal("phantom edge")
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("degree(1)=%d want 2", d)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := map[string]func(){
		"self-loop":    func() { NewBuilder(3).AddEdge(1, 1) },
		"out of range": func() { NewBuilder(3).AddEdge(0, 3) },
		"negative":     func() { NewBuilder(3).AddEdge(-1, 0) },
		"negative n":   func() { NewBuilder(-1) },
		"2-cycle":      func() { NewBuilder(3).AddCycle(0, 1) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNeighborsSortedAndConsistent(t *testing.T) {
	rng := xrand.New(2)
	g := GNM(30, 120, rng)
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", v, ns)
			}
		}
		for _, w := range ns {
			if !g.HasEdge(int(w), v) {
				t.Fatalf("asymmetric adjacency %d-%d", v, w)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	g := GNM(25, 80, rng)
	var pairs [][2]int
	for _, e := range g.Edges() {
		pairs = append(pairs, [2]int{e.U, e.V})
	}
	h, err := FromEdges(g.N(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, h) {
		t.Fatal("FromEdges(Edges()) is not identity")
	}
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("handshake lemma violated: %d != %d", sum, 2*g.M())
	}
}

func TestGeneratorShapes(t *testing.T) {
	rng := xrand.New(4)
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"C7", Cycle(7), 7, 7},
		{"P9", Path(9), 9, 8},
		{"star", Star(6), 6, 5},
		{"K6", Complete(6), 6, 15},
		{"K3,4", CompleteBipartite(3, 4), 7, 12},
		{"grid3x4", Grid(3, 4), 12, 17},
		{"torus3x3", Torus(3, 3), 9, 18},
		{"Q3", Hypercube(3), 8, 12},
		{"wheel6", Wheel(6), 6, 10},
		{"theta4x3", Theta(4, 3, rng), 2 + 4*2, 4 * 3},
		{"barbell4,2", Barbell(4, 2), 9, 14},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: got (n=%d,m=%d) want (%d,%d)", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		if !Connected(c.g) {
			t.Errorf("%s: not connected", c.name)
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{1, 2, 3, 10, 50, 200} {
		g := RandomTree(n, rng)
		if g.M() != n-1 && n > 0 {
			if !(n == 1 && g.M() == 0) {
				t.Fatalf("n=%d: tree has %d edges", n, g.M())
			}
		}
		if !Connected(g) {
			t.Fatalf("n=%d: tree not connected", n)
		}
		if Girth(g) != 0 {
			t.Fatalf("n=%d: tree has a cycle", n)
		}
	}
}

func TestGNMEdgeCount(t *testing.T) {
	rng := xrand.New(6)
	for _, c := range []struct{ n, m int }{{10, 0}, {10, 45}, {20, 50}} {
		g := GNM(c.n, c.m, rng)
		if g.M() != c.m {
			t.Fatalf("GNM(%d,%d) has %d edges", c.n, c.m, g.M())
		}
	}
}

func TestConnectedGNM(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		max := n * (n - 1) / 2
		m := n - 1 + rng.Intn(max-n+2)
		g := ConnectedGNM(n, m, rng)
		if g.M() != m || !Connected(g) {
			t.Fatalf("ConnectedGNM(%d,%d): m=%d connected=%v", n, m, g.M(), Connected(g))
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(8)
	for _, c := range []struct{ n, d int }{{10, 3}, {12, 4}, {8, 5}} {
		g := RandomRegular(c.n, c.d, rng)
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != c.d {
				t.Fatalf("n=%d d=%d: degree(%d)=%d", c.n, c.d, v, g.Degree(v))
			}
		}
	}
}

func TestGirthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"C5", Cycle(5), 5},
		{"C9", Cycle(9), 9},
		{"K4", Complete(4), 3},
		{"K3,3", CompleteBipartite(3, 3), 4},
		{"grid", Grid(4, 4), 4},
		{"P5", Path(5), 0},
		{"Q4", Hypercube(4), 4},
		{"wheel7", Wheel(7), 3},
	}
	for _, c := range cases {
		if got := Girth(c.g); got != c.want {
			t.Errorf("%s: girth=%d want %d", c.name, got, c.want)
		}
	}
}

func TestThetaStructure(t *testing.T) {
	rng := xrand.New(9)
	g := Theta(5, 4, rng)
	if g.Degree(0) != 5 || g.Degree(1) != 5 {
		t.Fatalf("terminal degrees %d,%d want 5,5", g.Degree(0), g.Degree(1))
	}
	// Each pair of paths forms a C8; girth is 2*length.
	if got := Girth(g); got != 8 {
		t.Fatalf("girth=%d want 8", got)
	}
}

func TestFarFromCkFreeCertificate(t *testing.T) {
	rng := xrand.New(10)
	for _, k := range []int{3, 4, 5, 7} {
		for _, eps := range []float64{0.02, 0.05, 0.1} {
			if eps >= 1.0/float64(k) {
				continue
			}
			g, q := FarFromCkFree(80, k, eps, rng)
			if !Connected(g) {
				t.Fatalf("k=%d eps=%.2f: disconnected", k, eps)
			}
			if float64(q) <= eps*float64(g.M()) {
				t.Fatalf("k=%d eps=%.2f: q=%d m=%d not far", k, eps, q, g.M())
			}
			if g.N() != 80 {
				t.Fatalf("n=%d want 80", g.N())
			}
		}
	}
}

// TestFarFromCkFreeFeasibleAgreesWithGenerator sweeps a parameter grid and
// checks the catalog's far rule (farPacking finds a q) against the
// generator's actual behavior: feasible points must build, infeasible
// points must panic. Includes the exact
// boundary n=20 k=3 eps=0.24, where q=6 satisfies the closed-form bound
// q ≥ ⌈ε(n−1)/(1−ε)⌉ but not the generator's strict q > ε(n+q−1).
func TestFarFromCkFreeFeasibleAgreesWithGenerator(t *testing.T) {
	rng := xrand.New(12)
	builds := func(n, k int, eps float64) (ok bool) {
		defer func() { ok = recover() == nil }()
		FarFromCkFree(n, k, eps, rng)
		return true
	}
	if farPacking(20, 3, 0.24) > 0 {
		t.Fatal("n=20 k=3 eps=0.24 must be infeasible (strict-inequality boundary)")
	}
	for _, n := range []int{10, 20, 40, 90, 200} {
		for _, k := range []int{3, 4, 5, 7, 9} {
			for eps := 0.01; eps < 0.35; eps += 0.01 {
				if eps >= 1.0/float64(k) {
					continue // generator rejects the range outright
				}
				want := builds(n, k, eps)
				if got := farPacking(n, k, eps) > 0; got != want {
					t.Fatalf("n=%d k=%d eps=%.2f: feasible=%v but generator builds=%v", n, k, eps, got, want)
				}
			}
		}
	}
}

func TestPlantedCycleContainsIt(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		n := 12 + rng.Intn(20)
		k := 3 + rng.Intn(6)
		g, e := PlantedCycle(n, k, rng.Intn(5), rng)
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("planted edge %v missing", e)
		}
		if !Connected(g) {
			t.Fatal("planted graph disconnected")
		}
	}
}

func TestBehrendLikeTriangleStructure(t *testing.T) {
	g := BehrendLike(10, xrand.New(12))
	if g.N() != 30 {
		t.Fatalf("n=%d want 30", g.N())
	}
	// Every edge of a Behrend-like graph lies in at least the planted
	// triangle; verify some triangles exist and the graph is tripartite-ish
	// (girth 3).
	if Girth(g) != 3 {
		t.Fatalf("girth=%d want 3", Girth(g))
	}
}

func TestAPFreeSet(t *testing.T) {
	s := apFreeSet(60)
	if len(s) == 0 {
		t.Fatal("empty AP-free set")
	}
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			for l := j + 1; l < len(s); l++ {
				if s[i]+s[l] == 2*s[j] {
					t.Fatalf("3-AP found: %d %d %d", s[i], s[j], s[l])
				}
			}
		}
	}
}

func TestComponentsAndSubgraph(t *testing.T) {
	a, b := Cycle(4), Path(3)
	g := DisjointUnion(a, b)
	comps := Components(g)
	if len(comps) != 2 {
		t.Fatalf("components=%d want 2", len(comps))
	}
	// Drop all cycle edges: 4+2 edges -> 2 edges.
	h := Subgraph(g, func(e Edge) bool { return e.U >= 4 })
	if h.M() != 2 {
		t.Fatalf("subgraph m=%d want 2", h.M())
	}
}

// TestBuildQuick property: for arbitrary edge sets over a small vertex
// range, Build preserves exactly the deduplicated canonical edge set.
func TestBuildQuick(t *testing.T) {
	f := func(pairs []struct{ U, V uint8 }) bool {
		const n = 12
		b := NewBuilder(n)
		want := make(map[Edge]bool)
		for _, p := range pairs {
			u, v := int(p.U%n), int(p.V%n)
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			want[Edge{u, v}.Canon()] = true
		}
		g := b.Build()
		if g.M() != len(want) {
			return false
		}
		for e := range want {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCirculant(t *testing.T) {
	// C_n(1) is the plain cycle.
	if !Equal(Circulant(7, 1), Cycle(7)) {
		t.Fatal("C7(1) != C7")
	}
	// C_n(1,2): triangles everywhere, girth 3, 4-regular for n >= 5.
	g := Circulant(8, 1, 2)
	if Girth(g) != 3 {
		t.Fatalf("C8(1,2) girth %d", Girth(g))
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("C8(1,2) degree(%d)=%d", v, g.Degree(v))
		}
	}
	// Negative and wrapped jumps normalize.
	if !Equal(Circulant(9, -1), Cycle(9)) || !Equal(Circulant(9, 10), Cycle(9)) {
		t.Fatal("jump normalization broken")
	}
	// Duplicate jumps collapse.
	if !Equal(Circulant(6, 1, 1, 7), Cycle(6)) {
		t.Fatal("duplicate jumps not collapsed")
	}
	// n/2 jump gives a perfect matching layer, still simple.
	m := Circulant(6, 3)
	if m.M() != 3 {
		t.Fatalf("C6(3) has %d edges want 3", m.M())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero jump accepted")
			}
		}()
		Circulant(6, 6)
	}()
}

func TestLollipop(t *testing.T) {
	g := Lollipop(5, 4)
	if g.N() != 9 || g.M() != 10+4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !Connected(g) || Girth(g) != 3 {
		t.Fatal("lollipop shape wrong")
	}
	if g.Degree(g.N()-1) != 1 {
		t.Fatal("tail endpoint degree wrong")
	}
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	empty := NewBuilder(0).Build()
	single := NewBuilder(1).Build()
	cyc := NewBuilder(5)
	cyc.AddCycle(0, 1, 2, 3, 4)
	dense := NewBuilder(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			dense.AddEdge(u, v)
		}
	}
	isolated := NewBuilder(4)
	isolated.AddEdge(0, 2)
	return map[string]*Graph{
		"empty":    empty,
		"single":   single,
		"cycle5":   cyc.Build(),
		"k6":       dense.Build(),
		"isolated": isolated.Build(),
	}
}

// Structural equality and the canonical fingerprint must agree: the
// fingerprint keys the serving cache in place of an edge-set comparison, so
// a graph pair may not match under one and differ under the other.
func TestFingerprintsAgree(t *testing.T) {
	gs := testGraphs(t)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	for _, a := range names {
		for _, b := range names {
			structEq := Equal(gs[a], gs[b])
			canonEq := gs[a].Fingerprint() == gs[b].Fingerprint()
			if structEq != canonEq {
				t.Fatalf("Equal and Fingerprint disagree for (%s,%s): Equal=%v fingerprint=%v",
					a, b, structEq, canonEq)
			}
		}
	}
}

// TestFingerprintPinned fixes the canonical fingerprint's digest. The
// serving layer keys explicit graphs by it, so a change in how the words
// are hashed must not change the hex string. The G(64, 256) graph
// spans more than one 4 KB hashing buffer. The constants were computed by
// the word-at-a-time implementation.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"cycle5", Cycle(5), "ae2e9d6566ebb270d06f91536aeba49127f827ab63c33e7c56dc830005a8eb8c"},
		{"gnm64_256", ConnectedGNM(64, 256, xrand.New(1)), "12aa8e17ea06959d42b72b51344260596f93f93b63d184ac7fac77a67743506e"},
	} {
		if got := tc.g.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFromEdgesErrors: FromEdges refuses every pair Builder.AddEdge panics
// on with an error naming the first such pair, and a vertex count no
// Builder takes, and it never panics.
func TestFromEdgesErrors(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges [][2]int
		want  string
	}{
		{3, [][2]int{{0, 1}, {1, 1}}, "edges[1] = {1,1} is a self-loop"},
		{3, [][2]int{{0, 3}}, "edges[0] = {0,3} is out of range [0,3)"},
		{3, [][2]int{{0, 1}, {1, 2}, {-1, 0}}, "edges[2] = {-1,0} is out of range"},
		{3, [][2]int{{math.MinInt, 0}}, "is out of range"},
		{3, [][2]int{{2, math.MaxInt}}, "is out of range"},
		{0, [][2]int{{0, 1}}, "is out of range [0,0)"},
		{-1, nil, "vertex count -1"},
	} {
		g, err := FromEdges(tc.n, tc.edges)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("FromEdges(%d, %v) = %v, %v; want an error containing %q", tc.n, tc.edges, g, err, tc.want)
		}
	}
}

// TestFromEdgesRepeats: an edge list in any order, with every edge listed
// twice and in both orientations, builds the graph its edge set names,
// byte for byte, and holds no slot for the repeats.
func TestFromEdgesRepeats(t *testing.T) {
	rng := xrand.New(8)
	g := ConnectedGNM(200, 900, rng)
	var pairs [][2]int
	for _, e := range g.Edges() {
		pairs = append(pairs, [2]int{e.U, e.V}, [2]int{e.V, e.U})
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	h, err := FromEdges(g.N(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint() != g.Fingerprint() || !slices.Equal(h.off, g.off) || !slices.Equal(h.adj, g.adj) {
		t.Fatal("a repeated, shuffled edge list built a different graph")
	}
	if h.MemSize() != g.MemSize() || cap(h.adj) >= 2*len(pairs) {
		t.Fatalf("repeats kept their slots: MemSize %d vs %d, adj cap %d for %d pairs",
			h.MemSize(), g.MemSize(), cap(h.adj), len(pairs))
	}
}

// FuzzFromEdges is a differential test of FromEdges against the Builder.
// n is taken mod 65, and each byte pair of data is one edge whose
// endpoints fall in [-1, n+1]: lists repeat edges, list both orientations,
// come in any order, and hold self-loops and negative and out-of-range
// endpoints. Where AddEdge panics, FromEdges must return an error naming
// that pair. Otherwise both graphs must have the same N, M, neighbor lists
// and fingerprint.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 1, 1, 0, 3, 4, 4, 3, 1, 2, 4, 1})
	f.Add(uint8(6), []byte{1, 2, 2, 1, 2, 3, 3, 4, 4, 5, 5, 6, 6, 1, 1, 4})
	f.Add(uint8(3), []byte{1, 2, 2, 2})                                 // self-loop
	f.Add(uint8(3), []byte{1, 2, 0, 1})                                 // negative endpoint
	f.Add(uint8(3), []byte{1, 2, 2, 4})                                 // endpoint n
	f.Add(uint8(0), []byte{0, 1})                                       // no vertices
	f.Add(uint8(64), []byte{})                                          // no edges
	f.Add(uint8(64), []byte{1, 64, 64, 1, 33, 2, 2, 33, 64, 1, 60, 61}) // n-1 and repeats
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb) % 65
		var pairs [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			pairs = append(pairs, [2]int{int(data[i])%(n+3) - 1, int(data[i+1])%(n+3) - 1})
		}
		got, err := FromEdges(n, pairs)

		b := NewBuilder(n)
		for i, e := range pairs {
			if addPanics(b, e[0], e[1]) {
				want := fmt.Sprintf("edges[%d] = {%d,%d}", i, e[0], e[1])
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("AddEdge panics on %s, FromEdges returned %v", want, err)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("FromEdges(%d, %v): %v, the Builder took every pair", n, pairs, err)
		}
		want := b.Build()
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("n=%d m=%d, the Builder gives n=%d m=%d", got.N(), got.M(), want.N(), want.M())
		}
		for v := range n {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("Neighbors(%d) = %v, the Builder gives %v", v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatal("neighbor lists agree but fingerprints differ")
		}
	})
}

// addPanics reports whether b.AddEdge(u, v) panics.
func addPanics(b *Builder, u, v int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	b.AddEdge(u, v)
	return false
}
