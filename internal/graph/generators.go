package graph

import (
	"fmt"

	"cycledetect/internal/xrand"
)

// This file contains every graph family used by the test suite and by the
// experiment harness. All randomized generators take an explicit *xrand.RNG
// so that experiments are reproducible from a single seed.

// Cycle returns the cycle C_n (n >= 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	b.AddCycle(vs...)
	return b.Build()
}

// Path returns the path P_n on n vertices (n-1 edges).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i-1, i)
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	bu := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bu.AddEdge(u, a+v)
		}
	}
	return bu.Build()
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus (grid with wraparound). Both dimensions
// must be at least 3 to keep the graph simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: torus dimensions must be >= 3")
	}
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return (r%rows)*cols + (c % cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(at(r, c), at(r, c+1))
			b.AddEdge(at(r, c), at(r+1, c))
		}
	}
	return b.Build()
}

// RandomTree returns a uniformly random labelled tree on n vertices via a
// random Prüfer sequence.
func RandomTree(n int, rng *xrand.RNG) *Graph {
	if n <= 0 {
		panic("graph: RandomTree needs n >= 1")
	}
	b := NewBuilder(n)
	if n == 1 {
		return b.Build()
	}
	if n == 2 {
		b.AddEdge(0, 1)
		return b.Build()
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	// Standard decoding: repeatedly match the smallest leaf with the next
	// Prüfer symbol.
	leafHeap := newIntHeap()
	for v := 0; v < n; v++ {
		if deg[v] == 1 {
			leafHeap.push(v)
		}
	}
	for _, v := range prufer {
		leaf := leafHeap.pop()
		b.AddEdge(leaf, v)
		deg[v]--
		if deg[v] == 1 {
			leafHeap.push(v)
		}
	}
	u := leafHeap.pop()
	v := leafHeap.pop()
	b.AddEdge(u, v)
	return b.Build()
}

// GNM returns a uniformly random simple graph with n vertices and m edges.
func GNM(n, m int, rng *xrand.RNG) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: GNM m=%d exceeds max %d", m, maxM))
	}
	b := NewBuilder(n)
	for b.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// ConnectedGNM returns a connected random graph with n vertices and m >= n-1
// edges: a random spanning tree plus m-(n-1) extra uniform edges.
func ConnectedGNM(n, m int, rng *xrand.RNG) *Graph {
	if m < n-1 {
		panic("graph: ConnectedGNM needs m >= n-1")
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: ConnectedGNM m=%d exceeds max %d", m, maxM))
	}
	tree := RandomTree(n, rng)
	b := NewBuilder(n)
	for _, e := range tree.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for b.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// RandomRegular returns a random d-regular graph on n vertices using the
// pairing model with restarts (n*d must be even, d < n).
func RandomRegular(n, d int, rng *xrand.RNG) *Graph {
	if n*d%2 != 0 {
		panic("graph: RandomRegular needs n*d even")
	}
	if d >= n {
		panic("graph: RandomRegular needs d < n")
	}
	for attempt := 0; ; attempt++ {
		if g, ok := tryPairing(n, d, rng); ok {
			return g
		}
		if attempt > 1000 {
			panic("graph: RandomRegular failed to converge")
		}
	}
}

func tryPairing(n, d int, rng *xrand.RNG) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := NewBuilder(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || b.HasEdge(u, v) {
			return nil, false
		}
		b.AddEdge(u, v)
	}
	return b.Build(), true
}

// Theta returns the theta graph Θ(paths, length): two terminals joined by
// `paths` internally disjoint paths, each with `length` edges. Every pair of
// paths forms a cycle of length 2*length, and the terminals have degree
// `paths`; it is the canonical stress test for the naive append-and-forward
// (§3.2: "a node connected to u and/or v via many vertex-disjoint paths").
// Terminals are vertices 0 and 1.
func Theta(paths, length int, rng *xrand.RNG) *Graph {
	if paths < 1 || length < 2 {
		panic("graph: Theta needs paths >= 1, length >= 2")
	}
	n := 2 + paths*(length-1)
	b := NewBuilder(n)
	next := 2
	for p := 0; p < paths; p++ {
		prev := 0
		for i := 0; i < length-1; i++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, 1)
	}
	return b.Build()
}

// PlantedCycle embeds one k-cycle into a random connected "haystack" graph
// while guaranteeing (by construction) that a designated edge of the cycle is
// known. It returns the graph and the planted edge, and ensures the haystack
// contributes no additional vertices to the cycle.
//
// The haystack is a random tree on n vertices plus `extra` random edges that
// avoid creating parallel edges; the k-cycle is planted on k uniformly chosen
// distinct vertices. Callers that need certainty that the planted cycle is
// the *only* k-cycle should verify with the centralized oracle.
func PlantedCycle(n, k, extra int, rng *xrand.RNG) (*Graph, Edge) {
	if k < 3 || k > n {
		panic("graph: PlantedCycle needs 3 <= k <= n")
	}
	tree := RandomTree(n, rng)
	b := NewBuilder(n)
	for _, e := range tree.Edges() {
		b.AddEdge(e.U, e.V)
	}
	perm := rng.Perm(n)
	cyc := perm[:k]
	b.AddCycle(cyc...)
	for added := 0; added < extra; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v && b.AddEdge(u, v) {
			added++
		}
	}
	return b.Build(), Edge{cyc[0], cyc[1]}.Canon()
}

// FarFromCkFreeFeasible reports whether FarFromCkFree(n, k, eps, ·) can
// build its graph, by replaying the generator's own packing search: the
// construction has m = n + q − 1 edges, needs q > eps·m strictly, and must
// fit q vertex-disjoint k-cycles in n vertices. Grid schedulers (see
// internal/sweep) use it to skip unsatisfiable parameter points instead of
// tripping the generator's panic.
func FarFromCkFreeFeasible(n, k int, eps float64) bool {
	if k < 3 || eps <= 0 || eps >= 1.0/float64(k) {
		return false
	}
	for q := 1; q*k <= n; q++ {
		if float64(q) > eps*float64(n+q-1) {
			return true
		}
	}
	return false
}

// FarFromCkFree returns a connected graph that is provably eps-far from
// Ck-free, together with the packing size q (number of pairwise edge-disjoint
// planted k-cycles). The construction plants q vertex-disjoint k-cycles and
// strings them together with connector edges; since killing each planted
// cycle costs at least one edge deletion and the cycles are edge-disjoint,
// the graph is eps-far from Ck-free for every eps < q/m (Lemma 4 direction).
//
// pad extra vertices are attached as pendant paths so that experiments can
// hold eps fixed while growing n. The function panics if eps is not
// achievable (eps must be < 1/k since a k-cycle costs k edges but one
// deletion kills it).
func FarFromCkFree(n, k int, eps float64, rng *xrand.RNG) (*Graph, int) {
	if eps <= 0 || eps >= 1.0/float64(k) {
		panic(fmt.Sprintf("graph: FarFromCkFree needs 0 < eps < 1/k = %.4f", 1.0/float64(k)))
	}
	// With q disjoint k-cycles, m = q*k + connectors + padding. Choose q so
	// that q > eps*m holds with the final m. Start from the requirement
	// m <= q/eps and allocate the remaining edge budget to padding.
	// q cycles use q*k vertices; connectors: q-1 edges; padding: rest.
	q := 1
	for {
		cyclesV := q * k
		if cyclesV > n {
			panic(fmt.Sprintf("graph: FarFromCkFree cannot fit q=%d disjoint C%d in n=%d", q, k, n))
		}
		padV := n - cyclesV
		m := q*k + (q - 1) + padV // cycles + connectors + pendant path edges
		if float64(q) > eps*float64(m) {
			// Feasible: build it.
			b := NewBuilder(n)
			vertex := 0
			firstOfCycle := make([]int, q)
			for c := 0; c < q; c++ {
				vs := make([]int, k)
				for i := range vs {
					vs[i] = vertex
					vertex++
				}
				firstOfCycle[c] = vs[0]
				b.AddCycle(vs...)
			}
			for c := 1; c < q; c++ {
				b.AddEdge(firstOfCycle[c-1], firstOfCycle[c])
			}
			prev := firstOfCycle[q-1]
			for vertex < n {
				b.AddEdge(prev, vertex)
				prev = vertex
				vertex++
			}
			g := b.Build()
			if float64(q) <= eps*float64(g.M()) {
				panic("graph: internal: farness certificate violated")
			}
			return g, q
		}
		q++
	}
}

// BehrendLike returns a graph in the spirit of the Behrend-set constructions
// used by Fraigniaud et al. [20] to defeat sampling-based testers: a tripartite
// graph on 3*s vertices whose triangles are exactly the triples
// (a, a+x, a+2x mod s) for x in a 3-AP-free set S ⊆ [1, s). Every edge lies in
// at most one triangle, so the graph has many edge-disjoint triangles while
// being locally sparse in triangles. For k=3 experiments it provides
// instances that are far from C3-free yet have no dense triangle clusters.
func BehrendLike(s int, rng *xrand.RNG) *Graph {
	if s < 3 {
		panic("graph: BehrendLike needs s >= 3")
	}
	S := apFreeSet(s)
	b := NewBuilder(3 * s)
	// Parts: A = [0,s), B = [s,2s), C = [2s,3s).
	for a := 0; a < s; a++ {
		for _, x := range S {
			b.AddEdge(a, s+(a+x)%s)
			b.AddEdge(s+(a+x)%s, 2*s+(a+2*x)%s)
			b.AddEdge(a, 2*s+(a+2*x)%s)
		}
	}
	return b.Build()
}

// apFreeSet returns a 3-term-arithmetic-progression-free subset of [1, s)
// built greedily. The greedy set is the classic Stanley sequence (numbers
// with only digits 0 and 1 in base 3), which has polynomial density —
// sufficient for testing; Behrend's construction would be denser but is not
// needed at laptop scale.
func apFreeSet(s int) []int {
	var set []int
	for x := 1; x < s; x++ {
		ok := true
		// Check that x completes no 3-AP with two earlier members: for
		// members a < b, forbid x = 2b - a; equivalently scan pairs.
		for i := 0; i < len(set) && ok; i++ {
			for j := i + 1; j < len(set); j++ {
				if 2*set[j]-set[i] == x {
					ok = false
					break
				}
			}
		}
		if ok {
			set = append(set, x)
		}
	}
	return set
}

// Barbell returns two cliques K_c joined by a path with bridgeLen edges. It
// provides Ck-free instances (for k > c) with high-degree regions, exercising
// the pruning under heavy local traffic.
func Barbell(c, bridgeLen int) *Graph {
	if c < 3 || bridgeLen < 1 {
		panic("graph: Barbell needs c >= 3, bridgeLen >= 1")
	}
	n := 2*c + bridgeLen - 1
	b := NewBuilder(n)
	for u := 0; u < c; u++ {
		for v := u + 1; v < c; v++ {
			b.AddEdge(u, v)
			b.AddEdge(c+bridgeLen-1+u, c+bridgeLen-1+v)
		}
	}
	prev := c - 1
	for i := 0; i < bridgeLen; i++ {
		next := c + i
		if i == bridgeLen-1 {
			next = c + bridgeLen - 1
		}
		b.AddEdge(prev, next)
		prev = next
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			w := v ^ (1 << bit)
			if w > v {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// Wheel returns the wheel W_n: a hub (vertex 0) joined to every vertex of a
// cycle C_{n-1}. Wheels contain cycles of every length 3..n-1, making them a
// useful positive instance for every k.
func Wheel(n int) *Graph {
	if n < 4 {
		panic("graph: Wheel needs n >= 4")
	}
	b := NewBuilder(n)
	rim := make([]int, n-1)
	for i := range rim {
		rim[i] = i + 1
		b.AddEdge(0, i+1)
	}
	b.AddCycle(rim...)
	return b.Build()
}

// intHeap is a minimal binary min-heap for RandomTree's Prüfer decoding;
// container/heap's interface indirection is unnecessary overhead here.
type intHeap struct{ xs []int }

func newIntHeap() *intHeap { return &intHeap{} }

func (h *intHeap) push(x int) {
	h.xs = append(h.xs, x)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.xs[p] <= h.xs[i] {
			break
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.xs[l] < h.xs[small] {
			small = l
		}
		if r < last && h.xs[r] < h.xs[small] {
			small = r
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}

// Circulant returns the circulant graph C_n(jumps): vertices 0..n-1 with
// edges {v, v+j mod n} for every jump j. Circulants are cycles with regular
// chord structure — e.g. C_n(1,2) contains C3 through every edge — making
// them sharp positive instances for many cycle lengths at once, and the
// shape of graph the paper's conclusion discusses when explaining why the
// technique does not extend to chorded patterns.
func Circulant(n int, jumps ...int) *Graph {
	if n < 3 {
		panic("graph: Circulant needs n >= 3")
	}
	b := NewBuilder(n)
	for _, j := range jumps {
		jj := j % n
		if jj < 0 {
			jj += n
		}
		if jj == 0 {
			panic("graph: Circulant jump must be nonzero mod n")
		}
		for v := 0; v < n; v++ {
			w := (v + jj) % n
			if v != w && !b.HasEdge(v, w) {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// Lollipop returns the lollipop graph: a clique K_c with a pendant path of
// pathLen edges attached — a classic mixing-structure instance with one
// dense cycle-rich region and a long cycle-free tail.
func Lollipop(c, pathLen int) *Graph {
	if c < 3 || pathLen < 1 {
		panic("graph: Lollipop needs c >= 3, pathLen >= 1")
	}
	b := NewBuilder(c + pathLen)
	for u := 0; u < c; u++ {
		for v := u + 1; v < c; v++ {
			b.AddEdge(u, v)
		}
	}
	prev := c - 1
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, c+i)
		prev = c + i
	}
	return b.Build()
}
