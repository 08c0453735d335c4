package serve

import (
	"errors"
	"fmt"
	"math"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
)

// Query operations.
const (
	// OpTest runs the full randomized Ck-freeness tester (the default).
	OpTest = "test"
	// OpDetect runs the deterministic Phase-2 detector for one candidate
	// edge (QueryRequest.Edge, as node IDs).
	OpDetect = "detect"
)

// GraphRequest names the graph a query runs on — either a generated family
// (the sweep.GraphSpec vocabulary plus a generator seed) or an explicit
// edge list. Family graphs are cached under a key derived from the spec
// alone, so a cache hit never rebuilds the graph; explicit graphs are
// cached under their canonical fingerprint, so the same edge set sent by
// different clients (in any order) shares one compiled network.
type GraphRequest struct {
	// Family is one of "gnm", "far", "tree", "cycle", "complete" (see
	// sweep.GraphSpec). Leave empty when giving Edges.
	Family string `json:"family,omitempty"`
	// N is the vertex count (both forms).
	N int `json:"n"`
	// M is the edge count (gnm only; defaults to 4n).
	M int `json:"m,omitempty"`
	// Seed seeds the generator (family form only). Distinct seeds are
	// distinct cache entries.
	Seed uint64 `json:"seed,omitempty"`
	// Edges lists the graph explicitly as vertex pairs in [0, N).
	Edges EdgeList `json:"edges,omitempty"`
}

// EdgeList is an explicit graph's edge list, [[u, v], ...] on the wire.
//
// It decodes itself instead of leaving the work to encoding/json's
// reflection. That is faster on the edge list of a large uploaded graph, the
// bulk of a cache-miss request, and it is strict: every element must be
// exactly two integers. Decoding into a plain [][2]int zero-fills [5] into
// {5, 0} and truncates [1, 2, 3] to {1, 2}, silently answering a query about
// a different graph.
type EdgeList [][2]int

// UnmarshalJSON implements json.Unmarshaler. encoding/json has already
// checked the syntax of data, so this only checks shape, integer range and
// length: a list longer than sweep.MaxFamilyEdges, the size limit of every
// graph, is refused as soon as its next element is read. It never panics
// on other input either. JSON null yields a nil list.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*l = nil
		return nil
	}
	p := edgeParser{data: data}
	if !p.consume('[') {
		return fmt.Errorf("edges: want an array of [u, v] pairs")
	}
	edges := EdgeList{} // non-nil: [] decodes to an empty list, as in encoding/json
	if !p.consume(']') {
		for {
			var e [2]int
			ok := p.consume('[') && p.readInt(&e[0]) && p.consume(',') && p.readInt(&e[1]) && p.consume(']')
			if !ok {
				return fmt.Errorf("edges[%d]: want [u, v], exactly two integers", len(edges))
			}
			if len(edges) == sweep.MaxFamilyEdges {
				return fmt.Errorf("edges: more than the limit of %d edges", sweep.MaxFamilyEdges)
			}
			edges = append(edges, e)
			if p.consume(']') {
				break
			}
			if !p.consume(',') {
				return fmt.Errorf("edges: want an array of [u, v] pairs")
			}
		}
	}
	*l = edges
	return nil
}

// edgeParser is EdgeList's cursor over JSON that encoding/json has already
// validated.
type edgeParser struct {
	data []byte
	i    int
}

func (p *edgeParser) skipSpace() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether c was next.
func (p *edgeParser) consume(c byte) bool {
	p.skipSpace()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// readInt reads an optionally negative run of decimal digits into *dst,
// reporting false when there is none or it overflows int. A fraction or an
// exponent is left unread, so the caller's next consume fails on it.
func (p *edgeParser) readInt(dst *int) bool {
	p.skipSpace()
	neg := p.i < len(p.data) && p.data[p.i] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		p.i++
		limit++ // -(MaxInt+1) is MinInt
	}
	start := p.i
	var u uint64
	for ; p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9'; p.i++ {
		d := uint64(p.data[p.i] - '0')
		if u > (limit-d)/10 {
			return false
		}
		u = u*10 + d
	}
	if p.i == start {
		return false
	}
	*dst = int(u)
	if neg {
		*dst = -*dst
	}
	return true
}

// QueryRequest is one tester/detector query.
type QueryRequest struct {
	Graph GraphRequest `json:"graph"`
	// Op is "test" (default) or "detect".
	Op string `json:"op,omitempty"`
	// K is the cycle length (>= 3).
	K int `json:"k"`
	// Eps is the property-testing parameter in (0,1); required for "test"
	// unless Reps is given. The "far" graph family also reads it.
	Eps float64 `json:"eps,omitempty"`
	// Reps overrides the ⌈(e²/ε)ln3⌉ repetition count (test only).
	Reps int `json:"reps,omitempty"`
	// Seed seeds the run's coin streams; runs are deterministic per seed.
	Seed uint64 `json:"seed,omitempty"`
	// Engine may name "bsp", the only engine; any other value is refused.
	Engine string `json:"engine,omitempty"`
	// Edge is the detector's candidate edge as two node IDs (detect only).
	Edge *[2]int64 `json:"edge,omitempty"`
	// Naive disables Phase-2 pruning (ablation).
	Naive bool `json:"naive,omitempty"`
}

// QueryResponse reports one query's outcome plus serving metadata.
type QueryResponse struct {
	Rejected       bool    `json:"rejected"`
	RejectingIDs   []int64 `json:"rejecting_ids,omitempty"`
	Witness        []int64 `json:"witness,omitempty"`
	N              int     `json:"n"`
	M              int     `json:"m"`
	Rounds         int     `json:"rounds"`
	Repetitions    int     `json:"repetitions,omitempty"`
	Messages       int64   `json:"messages"`
	TotalBits      int64   `json:"total_bits"`
	MaxMessageBits int     `json:"max_message_bits"`
	MaxSeqs        int     `json:"max_seqs"`
	// Cache is "hit" when the compiled network was already cached.
	Cache string `json:"cache"`
	// ElapsedMS is the server-side wall time of the query.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// resolve validates the request and returns the cache key and a graph
// builder for misses. Family keys are computed without building the
// graph (hits skip construction entirely); explicit edge lists are built
// eagerly and keyed by canonical fingerprint.
func (req *QueryRequest) resolve() (key string, build func() (*graph.Graph, error), err error) {
	switch req.Op {
	case "", OpTest:
		req.Op = OpTest
	case OpDetect:
		if req.Edge == nil {
			return "", nil, fmt.Errorf("serve: op %q needs \"edge\": [u, v]", OpDetect)
		}
		if req.Edge[0] == req.Edge[1] {
			return "", nil, fmt.Errorf("serve: candidate edge endpoints equal (%d)", req.Edge[0])
		}
	default:
		return "", nil, fmt.Errorf("serve: unknown op %q (want %q or %q)", req.Op, OpTest, OpDetect)
	}
	if req.K < 3 {
		return "", nil, fmt.Errorf("serve: k must be at least 3, got %d", req.K)
	}
	if req.Op == OpTest && req.Reps <= 0 && (req.Eps <= 0 || req.Eps >= 1) {
		return "", nil, fmt.Errorf("serve: eps %v outside (0,1) and no reps given", req.Eps)
	}
	if req.Reps < 0 {
		return "", nil, fmt.Errorf("serve: negative reps %d", req.Reps)
	}
	if req.Engine != "" && network.Engine(req.Engine) != network.EngineBSP {
		return "", nil, fmt.Errorf("serve: unknown engine %q", req.Engine)
	}

	gr := req.Graph
	switch {
	case gr.Family != "" && len(gr.Edges) > 0:
		return "", nil, fmt.Errorf("serve: graph gives both a family and explicit edges")
	case gr.Family != "":
		gs := sweep.GraphSpec{Family: gr.Family, N: gr.N, M: gr.M}
		if err := gs.Validate(); err != nil {
			return "", nil, err
		}
		key = sweep.FamilyKey(gs, req.K, req.Eps, gr.Seed)
		k, eps, seed := req.K, req.Eps, gr.Seed
		build = func() (*graph.Graph, error) { return sweep.BuildGraph(gs, k, eps, seed) }
	case len(gr.Edges) > 0:
		g, err := buildExplicit(gr.N, gr.Edges)
		if err != nil {
			return "", nil, err
		}
		key = "fp:" + g.Fingerprint()
		build = func() (*graph.Graph, error) { return g, nil }
	default:
		return "", nil, fmt.Errorf("serve: graph needs a family or an edge list")
	}
	return key, build, nil
}

// errNotConnected refuses an explicit graph the CONGEST model cannot run.
var errNotConnected = errors.New("serve: graph is not connected (the CONGEST model requires a connected network)")

// buildExplicit constructs a graph from an explicit edge list.
func buildExplicit(n int, edges [][2]int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: explicit graph needs \"n\" >= 1, got %d", n)
	}
	// A connected graph on n vertices has at least n-1 edges. Refusing a
	// shorter list before the builder exists keeps memory bounded by the
	// body, not by the n it names.
	if len(edges) < n-1 {
		return nil, errNotConnected
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("serve: self-loop at %d", e[0])
		}
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return nil, fmt.Errorf("serve: edge {%d,%d} out of range [0,%d)", e[0], e[1], n)
		}
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	if !graph.Connected(g) {
		return nil, errNotConnected
	}
	return g, nil
}
