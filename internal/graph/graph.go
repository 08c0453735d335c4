// Package graph provides the static graph substrate on which the CONGEST
// simulator and the cycle-detection algorithms run.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected, as in
// the paper's model (§2.1). A Graph is immutable once built; construction
// goes through Builder or FromEdges, which both sort and deduplicate every
// neighbor list.
package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"
)

// Graph is an immutable simple undirected graph on vertices 0..N()-1.
//
// Vertices are small integers; the CONGEST layer maps them to O(log n)-bit
// identifiers (which may be an arbitrary permutation, as the paper allows
// IDs from any polynomial range).
type Graph struct {
	n   int
	m   int
	off []int32 // CSR offsets, len n+1
	adj []int32 // concatenated sorted neighbor lists, len 2m
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return int(ns[i]) >= v })
	return i < len(ns) && int(ns[i]) == v
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				es = append(es, Edge{u, int(w)})
			}
		}
	}
	return es
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Fingerprint returns the CANONICAL identity of the graph: a hex-encoded
// SHA-256 over (n, m, CSR offsets, CSR adjacency). Because construction
// goes through Builder or FromEdges, which both sort and deduplicate
// neighbor lists, two graphs with the same vertex count and edge set
// produce the same fingerprint regardless of edge insertion order, and
// distinct edge sets produce distinct fingerprints (up to hash collision).
// The serving layer keys its cache of compiled networks for explicit graphs
// on this.
//
// The words are hashed a 4 KB buffer at a time. The digest depends only on
// the word sequence, and TestFingerprintPinned fixes it.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 4096), uint64(g.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.m))
	for _, words := range [2][]int32{g.off, g.adj} {
		for _, w := range words {
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(uint32(w)))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// MemSize returns the graph's resident size in bytes — the CSR offset and
// adjacency slabs, Θ(m). Anchored to the actual field types (not assumed
// widths), so callers that budget memory by it (the serving layer's
// byte-weighted cache) stay correct if the representation changes.
func (g *Graph) MemSize() int64 {
	var off int32
	return int64(len(g.off)+len(g.adj)) * int64(unsafe.Sizeof(off))
}

// Builder accumulates edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected eagerly so that bugs in
// generators surface at construction time rather than as silent model
// violations (the CONGEST model requires a simple graph). Its edge map
// serves generators that call HasEdge or M mid-build; a finished edge list
// goes to FromEdges directly.
type Builder struct {
	n     int
	edges map[Edge]struct{}
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, edges: make(map[Edge]struct{})}
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// M returns the number of edges added so far.
func (b *Builder) M() int { return len(b.edges) }

// AddEdge inserts the undirected edge {u, v}. It panics on self-loops or
// out-of-range endpoints and reports whether the edge was new.
func (b *Builder) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	e := Edge{u, v}.Canon()
	if _, dup := b.edges[e]; dup {
		return false
	}
	b.edges[e] = struct{}{}
	return true
}

// HasEdge reports whether {u, v} has been added.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.edges[Edge{u, v}.Canon()]
	return ok
}

// AddPath adds the path v0-v1-...-vk along vs.
func (b *Builder) AddPath(vs ...int) {
	for i := 1; i < len(vs); i++ {
		b.AddEdge(vs[i-1], vs[i])
	}
}

// AddCycle adds the cycle v0-v1-...-vk-v0 along vs. It panics if fewer than
// three vertices are given (the model forbids parallel edges and loops).
func (b *Builder) AddCycle(vs ...int) {
	if len(vs) < 3 {
		panic("graph: cycle needs at least 3 vertices")
	}
	b.AddPath(vs...)
	b.AddEdge(vs[len(vs)-1], vs[0])
}

// Build produces the immutable Graph. It hands the map's edges to
// FromEdges, the package's one CSR fill.
func (b *Builder) Build() *Graph {
	pairs := make([][2]int, 0, len(b.edges))
	for e := range b.edges {
		pairs = append(pairs, [2]int{e.U, e.V})
	}
	g, err := FromEdges(b.n, pairs)
	if err != nil {
		panic(err) // AddEdge has already refused every pair FromEdges would
	}
	return g
}

// FromEdges builds a graph on n vertices from an explicit edge list, with
// no hashing: it counts every vertex's degree, prefix-sums the counts into
// CSR offsets, fills both directions of every pair, sorts each neighbor
// list and drops its adjacent duplicates. Pairs may repeat and come in
// either orientation. A self-loop or an endpoint outside [0, n) is an
// error naming the first such pair, where Builder.AddEdge panics.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d outside [0, %d]", n, math.MaxInt32)
	}
	if len(edges) > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: %d edges, more than int32 offsets hold", len(edges))
	}
	off := make([]int32, n+1)
	for i, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: edges[%d] = {%d,%d} is a self-loop", i, u, v)
		}
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			return nil, fmt.Errorf("graph: edges[%d] = {%d,%d} is out of range [0,%d)", i, u, v, n)
		}
		off[u+1]++
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// off[v] is the next free slot of v's list while filling, so it ends at
	// v's end, which is where v+1 starts: shifting by one restores it.
	adj := make([]int32, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[off[u]] = int32(v)
		off[u]++
		adj[off[v]] = int32(u)
		off[v]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	// Sort each list and compact it leftwards over the duplicates; next is
	// where v's list starts before compaction, off[v] where it starts after.
	next := int32(0)
	for v := 0; v < n; v++ {
		ns := adj[next:off[v+1]]
		next = off[v+1]
		slices.Sort(ns)
		off[v+1] = off[v] + int32(copy(adj[off[v]:], slices.Compact(ns)))
	}
	if int(off[n]) < len(adj) {
		adj = slices.Clone(adj[:off[n]]) // let the duplicates' slots go
	}
	return &Graph{n: n, m: int(off[n]) / 2, off: off, adj: adj}, nil
}
