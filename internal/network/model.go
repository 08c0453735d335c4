package network

// This file holds the CONGEST model's vocabulary (§2.1 of the paper):
// node identifiers and programs, traffic statistics, the precomputed port
// topology, and the run errors. The errors say "congest:" because they
// describe the model's rules, not this package's.

import (
	"fmt"
	"unsafe"

	"cycledetect/internal/graph"
	"cycledetect/internal/xrand"
)

// ID is a node identifier as visible to the algorithm.
type ID = int64

// NodeInfo is the initial knowledge of a node. Following the paper (and the
// standard KT1 assumption needed by Phase 1's edge-assignment rule), a node
// knows its own ID, the IDs of its neighbors (per port), the number of nodes
// n, and has private random coins.
type NodeInfo struct {
	ID ID
	N  int
	// NeighborIDs[p] is the ID of the neighbor on port p. The slice aliases
	// engine-owned topology storage shared by all nodes (like
	// graph.Neighbors) and must not be modified; a node that wants a
	// reordered or augmented view must copy it.
	NeighborIDs []ID
	Rand        *xrand.RNG
}

// Degree returns the node's degree.
func (ni *NodeInfo) Degree() int { return len(ni.NeighborIDs) }

// Node is the per-node state of a running program.
//
// In round r (1-based) the engine first calls Send, which must fill out[p]
// with the payload for port p (nil for no message), then calls Receive with
// in[p] holding the payload that arrived on port p (nil for none). After
// the last round the engine calls Output once.
//
// Payload lifetime contract: a payload placed in out is consumed by the
// engine before the node's next Send call, so a node may reuse one
// per-node buffer for its outgoing payloads round after round (the engine's
// phase barriers guarantee this). Symmetrically, in is engine scratch that
// is valid only during the Receive call, and so are the payloads it holds;
// a node that needs received bytes later must copy them.
type Node interface {
	Send(round int, out [][]byte)
	Receive(round int, in [][]byte)
	Output() any
}

// Program constructs per-node state and declares the number of rounds. The
// round count may depend on n and m only through public knowledge (the
// paper's testers depend on k and ε alone).
type Program interface {
	Rounds(n, m int) int
	NewNode(info NodeInfo) Node
}

// ReusableNode is an optional Node extension for build-once / run-many
// execution: a node that can be re-bound to a fresh run of the same Program
// without reallocation. Reset must leave the node observably equivalent to
// what NewNode would have produced for the same info — internal buffers may
// keep their capacity, but no state from the previous run may leak into
// outputs, traffic, or metrics.
type ReusableNode interface {
	Node
	Reset(info NodeInfo)
}

// Engine names an execution engine.
type Engine string

// EngineBSP is the lockstep engine, the only one. Its name survives for
// callers that spell it out (InstanceOptions.Engine, corestore.Checkout,
// the sweep spec's engines and serve's engine field).
const EngineBSP Engine = "bsp"

// Stats aggregates message traffic over a run.
type Stats struct {
	Rounds           int
	MessagesSent     int64   // non-nil payloads
	TotalBits        int64   // sum of payload sizes
	MaxMessageBits   int     // largest single payload
	PerRoundMaxBits  []int   // largest payload per round, index round-1
	PerRoundBits     []int64 // traffic volume per round
	PerRoundMessages []int64 // message count per round
	AvgMessageBits   float64 // TotalBits / MessagesSent (0 if no messages)
}

// newStats returns a zeroed Stats with per-round arrays sized for the given
// round count.
func newStats(rounds int) Stats {
	return Stats{
		Rounds:           rounds,
		PerRoundMaxBits:  make([]int, rounds),
		PerRoundBits:     make([]int64, rounds),
		PerRoundMessages: make([]int64, rounds),
	}
}

// newStatsSlab returns count Stats whose per-round arrays are carved from
// three shared backing slices, so per-node (or per-worker) accounting costs
// a constant number of allocations instead of O(count).
func newStatsSlab(count, rounds int) []Stats {
	ss := make([]Stats, count)
	maxb := make([]int, count*rounds)
	bits := make([]int64, count*rounds)
	msgs := make([]int64, count*rounds)
	for i := range ss {
		lo, hi := i*rounds, (i+1)*rounds
		ss[i] = Stats{
			Rounds:           rounds,
			PerRoundMaxBits:  maxb[lo:hi:hi],
			PerRoundBits:     bits[lo:hi:hi],
			PerRoundMessages: msgs[lo:hi:hi],
		}
	}
	return ss
}

// reset zeroes s in place for reuse across runs, keeping the per-round
// slices (they must already have the right length for the next run).
func (s *Stats) reset() {
	s.MessagesSent = 0
	s.TotalBits = 0
	s.MaxMessageBits = 0
	s.AvgMessageBits = 0
	for i := range s.PerRoundMaxBits {
		s.PerRoundMaxBits[i] = 0
	}
	for i := range s.PerRoundBits {
		s.PerRoundBits[i] = 0
	}
	for i := range s.PerRoundMessages {
		s.PerRoundMessages[i] = 0
	}
}

// observe records one sent payload of the given size at the given round
// (1-based).
func (s *Stats) observe(round int, bits int) {
	s.MessagesSent++
	s.TotalBits += int64(bits)
	if bits > s.MaxMessageBits {
		s.MaxMessageBits = bits
	}
	if bits > s.PerRoundMaxBits[round-1] {
		s.PerRoundMaxBits[round-1] = bits
	}
	s.PerRoundBits[round-1] += int64(bits)
	s.PerRoundMessages[round-1]++
}

// finalize fills the derived fields after the last observe/merge.
func (s *Stats) finalize() {
	if s.MessagesSent > 0 {
		s.AvgMessageBits = float64(s.TotalBits) / float64(s.MessagesSent)
	}
}

// merge folds other into s (used by the engine to combine per-worker
// stats).
func (s *Stats) merge(other *Stats) {
	s.MessagesSent += other.MessagesSent
	s.TotalBits += other.TotalBits
	if other.MaxMessageBits > s.MaxMessageBits {
		s.MaxMessageBits = other.MaxMessageBits
	}
	for i, b := range other.PerRoundMaxBits {
		if b > s.PerRoundMaxBits[i] {
			s.PerRoundMaxBits[i] = b
		}
	}
	for i, b := range other.PerRoundBits {
		s.PerRoundBits[i] += b
	}
	for i, c := range other.PerRoundMessages {
		s.PerRoundMessages[i] += c
	}
}

// Result is the outcome of a run: one output per vertex (indexed by vertex,
// not ID) plus traffic statistics.
type Result struct {
	Outputs []any
	IDs     []ID // the ID assignment used
	Stats   Stats
}

// ErrCanceled reports a run aborted by its context at a round barrier.
// Round is the number of rounds that completed before the abort (0 when the
// context was already done at RunProgramCtx entry); Cause is the context's
// error, so errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) both see through it. A canceled Instance is
// immediately reusable: its next RunProgram is byte-identical to a fresh
// run (the engine forces a node rebuild, same as after a panic).
type ErrCanceled struct {
	Round int
	Cause error
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("congest: run canceled after round %d: %v", e.Round, e.Cause)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *ErrCanceled) Unwrap() error { return e.Cause }

// ErrBandwidth reports a message that exceeded the configured budget. The
// violation is its sender's: From is the ID of the node whose payload broke
// the budget, and a run reports the lowest such sending vertex of the
// earliest round.
type ErrBandwidth struct {
	Round     int
	From, To  ID
	Bits      int
	BudgetBit int
}

func (e *ErrBandwidth) Error() string {
	return fmt.Sprintf("congest: round %d: message %d->%d is %d bits, budget %d",
		e.Round, e.From, e.To, e.Bits, e.BudgetBit)
}

// topology is the precomputed port structure shared by every instance: the
// ID assignment, per-port neighbor IDs, and the reverse-port table. Building it
// validates the ID assignment; once built it is immutable, so a topology can
// be shared by many runs on the same graph.
type topology struct {
	g       *graph.Graph
	ids     []ID
	revPort [][]int32 // revPort[v][p] = the port of v on the neighbor reached via v's port p
	nbrIDs  [][]ID    // nbrIDs[v][p] = the ID of v's port-p neighbor
}

// buildTopology validates ids (nil means vertex v gets ID v) and
// precomputes the port structure for g.
func buildTopology(g *graph.Graph, ids []ID) (*topology, error) {
	n := g.N()
	if ids == nil {
		ids = make([]ID, n)
		for v := range ids {
			ids[v] = ID(v)
		}
	} else {
		if len(ids) != n {
			return nil, fmt.Errorf("congest: got %d IDs for %d vertices", len(ids), n)
		}
		seen := make(map[ID]struct{}, n)
		for _, id := range ids {
			if id < 0 {
				return nil, fmt.Errorf("congest: negative ID %d", id)
			}
			if _, dup := seen[id]; dup {
				return nil, fmt.Errorf("congest: duplicate ID %d", id)
			}
			seen[id] = struct{}{}
		}
	}
	t := &topology{g: g, ids: ids, revPort: make([][]int32, n), nbrIDs: make([][]ID, n)}
	// Adjacency lists are sorted and duplicate-free, so v's port on a
	// neighbor w is the number of w's neighbors below v. Visiting v in
	// ascending order, cur[w] counts exactly those when v reaches w. The
	// per-vertex slices are carved from two flat backing arrays to keep
	// setup allocations independent of n.
	revFlat := make([]int32, 2*g.M())
	idFlat := make([]ID, 2*g.M())
	cur := make([]int32, n)
	off := 0
	for v := 0; v < n; v++ {
		ns := g.Neighbors(v)
		t.revPort[v] = revFlat[off : off+len(ns) : off+len(ns)]
		t.nbrIDs[v] = idFlat[off : off+len(ns) : off+len(ns)]
		off += len(ns)
		for p, w := range ns {
			t.revPort[v][p] = cur[w]
			cur[w]++
			t.nbrIDs[v][p] = ids[w]
		}
	}
	return t, nil
}

// memSize is the topology's resident size in bytes: the flat reverse-port
// and neighbor-ID slabs (Θ(m)), the per-vertex slice headers carved over
// them, and the resolved ID assignment. Anchored to the actual field types
// via unsafe.Sizeof so the byte-weighted serve cache cannot silently drift
// from the real footprint if a representation changes.
func (t *topology) memSize() int64 {
	var (
		port   int32
		id     ID
		header []int32
	)
	n := int64(t.g.N())
	slabs := int64(2*t.g.M()) * (int64(unsafe.Sizeof(port)) + int64(unsafe.Sizeof(id)))
	headers := 2 * n * int64(unsafe.Sizeof(header))
	return slabs + headers + n*int64(unsafe.Sizeof(id))
}

// info assembles vertex v's NodeInfo around a caller-owned RNG. The caller
// must seed r to the node's coin stream — SeedStream(runSeed, uint64(ID)) —
// which is how an Instance reuses one RNG value per node across runs instead
// of allocating a fresh stream per run.
func (t *topology) info(v int, r *xrand.RNG) NodeInfo {
	return NodeInfo{
		ID:          t.ids[v],
		N:           t.g.N(),
		NeighborIDs: t.nbrIDs[v],
		Rand:        r,
	}
}
