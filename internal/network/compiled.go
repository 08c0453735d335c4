package network

import (
	"fmt"

	"cycledetect/internal/graph"
)

// CompileOptions fixes the engine-independent, shareable part of a
// network's configuration: everything that goes into the compiled core and
// is therefore common to every Instance attached to it.
type CompileOptions struct {
	// IDs optionally assigns identifiers to vertices (IDs[v] is vertex v's
	// identifier). Identifiers must be distinct and non-negative. If nil,
	// vertex v gets ID v.
	IDs []ID
	// BandwidthBits, if positive, is a hard per-message budget in bits;
	// exceeding it aborts the run with ErrBandwidth. Zero disables
	// enforcement (sizes are still recorded in Stats).
	BandwidthBits int
}

// Compiled is the immutable, shareable core of a network: the graph, the
// validated ID assignment, and the precomputed port topology. Compiling is
// the expensive, O(m) part of network construction; a Compiled is built
// once per graph and then any number of Instances attach to it with zero
// copying of the graph or the topology.
//
// A Compiled is immutable after Compile returns and is safe for concurrent
// use: N goroutines each running their own Instance over one shared
// Compiled produce results byte-identical to N sequential fresh runs
// (locked by TestConcurrentInstancesMatchSequential).
type Compiled struct {
	g             *graph.Graph
	topo          *topology
	bandwidthBits int
	memSize       int64
}

// Compile validates opts against g and precomputes the shared immutable
// core. The returned Compiled never changes; attach per-run state with
// NewInstance.
func Compile(g *graph.Graph, opts CompileOptions) (*Compiled, error) {
	topo, err := buildTopology(g, opts.IDs)
	if err != nil {
		return nil, err
	}
	c := &Compiled{g: g, topo: topo, bandwidthBits: opts.BandwidthBits}
	c.memSize = g.MemSize() + topo.memSize()
	return c, nil
}

// MemSize returns the compiled core's approximate resident size in bytes —
// Θ(m), dominated by the CSR adjacency and the per-port topology slabs.
// Cache layers weigh eviction decisions by it (see internal/serve).
func (c *Compiled) MemSize() int64 { return c.memSize }

// Graph returns the graph the core was compiled from.
func (c *Compiled) Graph() *graph.Graph { return c.g }

// InstanceOptions fixes the per-instance configuration: the engine's
// parallelism and its optional hooks. Unlike CompileOptions these do not
// affect the compiled core, so instances with different options share one
// Compiled.
type InstanceOptions struct {
	// Engine names the execution engine. EngineBSP, the only one, and the
	// empty name are accepted; NewInstance refuses any other.
	Engine Engine
	// Workers caps the worker pool (0 means GOMAXPROCS). Schedulers
	// that run many Instances concurrently set this low so the product of
	// instances and workers matches the hardware.
	Workers int
	// Collector, when non-nil, receives one RunMetrics record per
	// RunProgram/RunProgramCtx call (see RunCollector). nil costs one
	// pointer load per run; armed collection adds zero heap allocations,
	// so steady-state reused runs stay 0 allocs/op (locked by
	// TestRunCollectorAllocFree).
	Collector RunCollector
}

// NewInstance attaches a fresh per-run state slab — payload tables, coin
// streams, node cache, stats, and a persistent worker pool — to the
// compiled core. Instances are independent: each owns its worker
// goroutines and every mutable byte of a run, so concurrent RunProgram
// calls on distinct Instances of one Compiled are race-free. Call Close on
// the returned Instance to release its pool.
func (c *Compiled) NewInstance(opts InstanceOptions) (*Instance, error) {
	if opts.Engine != "" && opts.Engine != EngineBSP {
		return nil, fmt.Errorf("network: unknown engine %q", opts.Engine)
	}
	nw := &Instance{c: c, iopts: opts, rounds: -1}
	nw.init()
	nw.buildEngine()
	return nw, nil
}
