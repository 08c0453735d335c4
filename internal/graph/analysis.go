package graph

// Structural analysis helpers used by tests, oracles and the experiment
// harness. Everything here is centralized (full-knowledge) code; the
// distributed algorithms never call into it.

// Connected reports whether g is connected (the CONGEST model assumes a
// connected network). The empty graph and the 1-vertex graph count as
// connected.
func Connected(g *Graph) bool {
	if g.N() <= 1 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, int(w))
			}
		}
	}
	return count == g.N()
}

// Components returns the vertex sets of the connected components.
func Components(g *Graph) [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Girth returns the length of a shortest cycle in g, or 0 if g is a forest.
// It runs a BFS from every vertex; O(n·m), fine at laptop scale.
func Girth(g *Graph) int {
	best := 0
	for s := 0; s < g.N(); s++ {
		dist := make([]int, g.N())
		parent := make([]int, g.N())
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w32 := range g.Neighbors(v) {
				w := int(w32)
				if w == parent[v] {
					continue
				}
				if dist[w] == -1 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else {
					// Non-tree edge closes a cycle through s of length at
					// most dist[v]+dist[w]+1 (an upper bound that is tight
					// when both BFS paths are internally disjoint; scanning
					// all start vertices makes the overall minimum exact).
					c := dist[v] + dist[w] + 1
					if best == 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// Subgraph returns the subgraph induced by keeping only the given edges
// (vertex set unchanged). Used by the packing oracle.
func Subgraph(g *Graph, keep func(Edge) bool) *Graph {
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		if keep(e) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

// DisjointUnion returns a graph containing a and b on disjoint vertex sets
// (b's vertices shifted by a.N()).
func DisjointUnion(a, b *Graph) *Graph {
	bu := NewBuilder(a.N() + b.N())
	for _, e := range a.Edges() {
		bu.AddEdge(e.U, e.V)
	}
	for _, e := range b.Edges() {
		bu.AddEdge(a.N()+e.U, a.N()+e.V)
	}
	return bu.Build()
}
