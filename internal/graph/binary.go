package graph

// Canonical binary serialization of a Graph: exactly the fields
// Fingerprint hashes — (n, m, CSR offsets, CSR adjacency) in little-endian
// — so the encoding of a graph is as canonical as its fingerprint: two
// graphs with the same vertex count and edge set encode to the same bytes
// regardless of how their edges were inserted, and
// DecodeBinary(g.AppendBinary(nil)).Fingerprint() == g.Fingerprint() by
// construction. No package in this module stores graphs; the codec is a
// self-contained format for callers that do.
//
// DecodeBinary fully validates the CSR invariants Graph methods rely on
// (monotone offsets, sorted deduplicated neighbor lists, no self-loops,
// symmetric adjacency), so a decoded graph is indistinguishable from a
// Builder-built one even when the input bytes are corrupt or adversarial.

import (
	"encoding/binary"
	"fmt"
)

// binaryVersion tags the graph encoding; bump it when the layout changes so
// stale encodings fail loudly instead of decoding garbage.
const binaryVersion = 1

// maxBinaryVertices bounds the vertex/edge counts DecodeBinary accepts
// before allocating: headers of truncated or hostile inputs must not drive
// a multi-gigabyte make. The cap is far above any graph this repo runs
// (2^27 vertices ≈ a 1 GiB offsets slab) while keeping the worst-case
// allocation bounded by the input length check below.
const maxBinaryVertices = 1 << 27

// AppendBinary appends the canonical encoding of g to buf and returns the
// extended slice: a fixed header (version, n, m as uint64) followed by the
// CSR offset slab (n+1 × uint32) and the adjacency slab (2m × uint32).
func (g *Graph) AppendBinary(buf []byte) []byte {
	var w [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		buf = append(buf, w[:]...)
	}
	word(binaryVersion)
	word(uint64(g.n))
	word(uint64(g.m))
	var h [4]byte
	for _, o := range g.off {
		binary.LittleEndian.PutUint32(h[:], uint32(o))
		buf = append(buf, h[:]...)
	}
	for _, a := range g.adj {
		binary.LittleEndian.PutUint32(h[:], uint32(a))
		buf = append(buf, h[:]...)
	}
	return buf
}

// BinarySize returns len(g.AppendBinary(nil)) without encoding: callers
// sizing buffers or disk budgets use it.
func (g *Graph) BinarySize() int {
	return 24 + 4*(len(g.off)+len(g.adj))
}

// DecodeBinary parses a graph from the canonical encoding and returns it
// along with any trailing bytes. Every CSR invariant is re-validated, so an
// error — never a malformed Graph — comes back for truncated, corrupt, or
// version-mismatched input.
func DecodeBinary(data []byte) (*Graph, []byte, error) {
	if len(data) < 24 {
		return nil, nil, fmt.Errorf("graph: binary header truncated (%d bytes)", len(data))
	}
	version := binary.LittleEndian.Uint64(data[0:8])
	if version != binaryVersion {
		return nil, nil, fmt.Errorf("graph: binary version %d, want %d", version, binaryVersion)
	}
	n64 := binary.LittleEndian.Uint64(data[8:16])
	m64 := binary.LittleEndian.Uint64(data[16:24])
	if n64 > maxBinaryVertices || m64 > maxBinaryVertices {
		return nil, nil, fmt.Errorf("graph: implausible dimensions n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	need := 24 + 4*(n+1) + 4*(2*m)
	if len(data) < need {
		return nil, nil, fmt.Errorf("graph: binary body truncated (%d bytes, need %d)", len(data), need)
	}
	g := &Graph{n: n, m: m}
	g.off = make([]int32, n+1)
	p := 24
	for i := range g.off {
		g.off[i] = int32(binary.LittleEndian.Uint32(data[p:]))
		p += 4
	}
	g.adj = make([]int32, 2*m)
	for i := range g.adj {
		g.adj[i] = int32(binary.LittleEndian.Uint32(data[p:]))
		p += 4
	}
	if err := g.validate(); err != nil {
		return nil, nil, err
	}
	return g, data[need:], nil
}

// validate re-checks every invariant Builder.Build guarantees, so decoded
// graphs honor the same contract as constructed ones.
func (g *Graph) validate() error {
	if g.off[0] != 0 {
		return fmt.Errorf("graph: CSR offsets must start at 0, got %d", g.off[0])
	}
	if int(g.off[g.n]) != 2*g.m {
		return fmt.Errorf("graph: CSR offsets end at %d, want 2m=%d", g.off[g.n], 2*g.m)
	}
	// Bounds-check the whole offset array BEFORE slicing adj by it: a
	// monotone prefix can still point past the adjacency slab (the check
	// below only compares neighbors pairwise), and offsets are attacker
	// bytes here.
	for v := 0; v < g.n; v++ {
		if g.off[v+1] < g.off[v] {
			return fmt.Errorf("graph: CSR offsets not monotone at vertex %d", v)
		}
		if int(g.off[v+1]) > 2*g.m {
			return fmt.Errorf("graph: CSR offset %d of vertex %d exceeds 2m=%d", g.off[v+1], v, 2*g.m)
		}
	}
	for v := 0; v < g.n; v++ {
		ns := g.adj[g.off[v]:g.off[v+1]]
		for i, w := range ns {
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", w, v, g.n)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: neighbor list of vertex %d not sorted/deduplicated", v)
			}
		}
	}
	// Symmetry: every directed arc must have its reverse, or HasEdge and the
	// port topology would silently disagree about the edge set.
	for v := 0; v < g.n; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: asymmetric adjacency: %d lists %d but not vice versa", v, w)
			}
		}
	}
	return nil
}
