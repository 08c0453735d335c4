// Package cycledetect is a Go implementation of "Distributed Detection of
// Cycles" (Fraigniaud & Olivetti, SPAA 2017): a 1-sided-error distributed
// property-testing algorithm that decides Ck-freeness for every k ≥ 3 in
// O(1/ε) rounds of the CONGEST model.
//
// The package simulates the CONGEST network in synchronous lockstep rounds,
// runs the paper's two-phase tester on it, and reports the network's verdict
// together with traffic statistics that verify the paper's bandwidth claims.
//
// # Quick start
//
//	g := cycledetect.NewGraph(6)
//	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}} {
//		g.AddEdge(e[0], e[1])
//	}
//	res, err := cycledetect.Test(g, cycledetect.Options{K: 6, Epsilon: 0.1})
//	// res.Rejected == true: some node found a C6 and can exhibit it.
//
// Two entry points are provided:
//
//   - Test runs the full randomized tester (Phase 1 + Phase 2, amplified to
//     the 2/3 guarantee on ε-far instances; never rejects a Ck-free graph).
//   - DetectThroughEdge runs the deterministic Phase-2 detector for one
//     candidate edge in exactly ⌊k/2⌋ rounds; a single k-cycle through the
//     edge is always found.
package cycledetect

import (
	"errors"
	"fmt"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/ptest"
)

// Graph is a simple undirected graph under construction. Vertices are
// 0..n-1. The zero value is unusable; call NewGraph.
type Graph struct {
	b *graph.Builder
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{b: graph.NewBuilder(n)}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are errors (the CONGEST model works on simple graphs); adding an
// existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("cycledetect: self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= g.b.N() || v >= g.b.N() {
		return fmt.Errorf("cycledetect: edge {%d,%d} out of range [0,%d)", u, v, g.b.N())
	}
	g.b.AddEdge(u, v)
	return nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.b.N() }

// M returns the number of (distinct) edges added.
func (g *Graph) M() int { return g.b.M() }

// build freezes the graph for simulation.
func (g *Graph) build() *graph.Graph { return g.b.Build() }

// Options configures Test and DetectThroughEdge. Both always run
// Algorithm 1's pruned forwarding, which keeps every message within
// Lemma 3's bound; no option selects the §3.2 append-and-forward strawman.
type Options struct {
	// K is the cycle length to test for, in [3, 9] (combin.MaxCalibratedK
	// says why no larger K runs). Required.
	K int
	// Epsilon is the property-testing parameter in (0,1): the tester
	// distinguishes Ck-free graphs from graphs ε-far from Ck-free. Required
	// for Test unless Reps is set; ignored by DetectThroughEdge.
	Epsilon float64
	// Reps overrides the repetition count derived from Epsilon (expert use:
	// measurement of per-repetition behavior).
	Reps int
	// Seed seeds all node coins; runs are deterministic per seed.
	Seed uint64
	// IDs optionally assigns node identifiers (distinct, non-negative,
	// IDs[v] for vertex v). Nil means vertex v has ID v.
	IDs []int64
	// BandwidthBits, when positive, aborts the run if any message exceeds
	// the budget — a hard CONGEST enforcement.
	BandwidthBits int
}

// instance compiles g into a network configured by the options. The
// caller runs on it and closes it.
func (o *Options) instance(g *Graph) (*network.Instance, error) {
	return network.New(g.build(), network.Options{
		IDs:           o.IDs,
		BandwidthBits: o.BandwidthBits,
	})
}

// Result reports a run's outcome.
type Result struct {
	// Rejected is true iff at least one node output reject, i.e. a k-cycle
	// was detected. By 1-sidedness, Rejected implies the cycle is real.
	Rejected bool
	// RejectingNodes lists IDs of nodes that output reject (ascending).
	RejectingNodes []int64
	// Witness is a detected k-cycle as an ordered list of node IDs
	// (consecutive entries adjacent, last adjacent to first); nil if
	// accepted.
	Witness []int64
	// Rounds is the number of CONGEST rounds used.
	Rounds int
	// Repetitions is the number of two-phase repetitions run (Test only).
	Repetitions int
	// Messages is the total number of (non-empty) messages sent.
	Messages int64
	// TotalBits is the total traffic volume.
	TotalBits int64
	// MaxMessageBits is the largest single message, in bits — the quantity
	// the CONGEST model bounds by O(log n).
	MaxMessageBits int
	// MaxSequencesPerMessage is the largest number of ID sequences packed
	// into one Phase-2 message (Lemma 3 bounds it by (k−t+1)^(t−1)).
	MaxSequencesPerMessage int
}

// ErrEmptyGraph is returned when the graph has no vertices.
var ErrEmptyGraph = errors.New("cycledetect: empty graph")

// Test runs the full distributed property tester for Ck-freeness on g.
//
// Guarantees (Theorem 1): if g is Ck-free every node accepts, always; if g
// is Epsilon-far from Ck-free, some node rejects with probability at least
// 2/3. The round count is Repetitions·(1+⌊K/2⌋) ∈ O(1/ε), independent of
// the size of g.
func Test(g *Graph, opts Options) (*Result, error) {
	prog := &core.Tester{K: opts.K, Eps: opts.Epsilon, Reps: opts.Reps}
	if err := validate(g, prog); err != nil {
		return nil, err
	}
	nw, err := opts.instance(g)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	res, err := nw.RunProgram(prog, opts.Seed)
	if err != nil {
		return nil, err
	}
	out := summarize(res)
	out.Repetitions = prog.Repetitions()
	return out, nil
}

// DetectThroughEdge runs the deterministic Phase-2 detector: does a k-cycle
// pass through the edge {u, v} (given as node IDs)? It completes in exactly
// ⌊K/2⌋ rounds and is exact — no farness assumption, no error probability
// (§1.2: "even if there is just a single k-cycle passing through e, that
// cycle will be detected").
func DetectThroughEdge(g *Graph, u, v int64, opts Options) (*Result, error) {
	prog := &core.EdgeDetector{K: opts.K, U: u, V: v}
	if err := validate(g, prog); err != nil {
		return nil, err
	}
	nw, err := opts.instance(g)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	res, err := nw.RunProgram(prog, opts.Seed)
	if err != nil {
		return nil, err
	}
	return summarize(res), nil
}

// RequiredRepetitions returns the number of repetitions Test will run for a
// given epsilon: ⌈(e²/ε)·ln 3⌉.
func RequiredRepetitions(epsilon float64) (int, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return 0, fmt.Errorf("cycledetect: epsilon %v outside (0,1)", epsilon)
	}
	return ptest.Reps(epsilon), nil
}

// validate refuses an empty graph and what core's Validate refuses.
func validate(g *Graph, prog interface{ Validate() error }) error {
	if g == nil || g.b == nil || g.N() == 0 {
		return ErrEmptyGraph
	}
	if err := prog.Validate(); err != nil {
		return fmt.Errorf("cycledetect: %w", err)
	}
	return nil
}

func summarize(res *network.Result) *Result {
	dec := core.Summarize(res.Outputs, res.IDs)
	return &Result{
		Rejected:               dec.Reject,
		RejectingNodes:         dec.RejectingIDs,
		Witness:                dec.Witness,
		Rounds:                 res.Stats.Rounds,
		Messages:               res.Stats.MessagesSent,
		TotalBits:              res.Stats.TotalBits,
		MaxMessageBits:         res.Stats.MaxMessageBits,
		MaxSequencesPerMessage: dec.MaxSeqs,
	}
}
