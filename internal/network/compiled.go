package network

import (
	"fmt"

	"cycledetect/internal/graph"
)

// CompileOptions fixes the engine-independent, shareable part of a
// network's configuration: everything that goes into the compiled core and
// is therefore common to every Instance attached to it.
type CompileOptions struct {
	// IDs optionally assigns identifiers to vertices (see Config).
	IDs []ID
	// BandwidthBits, if positive, is a hard per-message budget in bits.
	BandwidthBits int
}

// Compiled is the immutable, shareable core of a network: the graph, the
// validated ID assignment, and the precomputed port topology. Compiling is
// the expensive, O(m) part of network construction; a Compiled is built
// once per graph and then any number of Instances — including Instances on
// different engines — attach to it with zero copying of the graph or the
// topology.
//
// A Compiled is immutable after Compile returns and is safe for concurrent
// use: N goroutines each running their own Instance over one shared
// Compiled produce results byte-identical to N sequential fresh runs
// (locked by TestConcurrentInstancesMatchSequential).
type Compiled struct {
	g       *graph.Graph
	topo    *Topology
	opts    CompileOptions
	memSize int64
}

// Compile validates opts against g and precomputes the shared immutable
// core. The returned Compiled never changes; attach per-run state with
// NewInstance.
func Compile(g *graph.Graph, opts CompileOptions) (*Compiled, error) {
	cfg := Config{IDs: opts.IDs, BandwidthBits: opts.BandwidthBits}
	topo, err := BuildTopology(g, &cfg)
	if err != nil {
		return nil, err
	}
	// BuildTopology materializes the default assignment when IDs is nil;
	// keep the resolved slice so every Instance sees the same assignment.
	opts.IDs = topo.IDs()
	c := &Compiled{g: g, topo: topo, opts: opts}
	c.memSize = g.MemSize() + topo.memSize()
	return c, nil
}

// MemSize returns the compiled core's approximate resident size in bytes —
// Θ(m), dominated by the CSR adjacency and the per-port topology slabs.
// Cache layers weigh eviction decisions by it (see internal/serve).
func (c *Compiled) MemSize() int64 { return c.memSize }

// Graph returns the graph the core was compiled from.
func (c *Compiled) Graph() *graph.Graph { return c.g }

// Topology returns the compiled port topology. Immutable; shared by every
// Instance.
func (c *Compiled) Topology() *Topology { return c.topo }

// IDs returns the resolved ID assignment (IDs()[v] is vertex v's
// identifier). The slice is owned by the Compiled and must not be modified.
func (c *Compiled) IDs() []ID { return c.topo.IDs() }

// BandwidthBits returns the per-message budget the core was compiled with
// (0 means unenforced).
func (c *Compiled) BandwidthBits() int { return c.opts.BandwidthBits }

// InstanceOptions fixes the per-instance configuration: the execution
// engine and its parallelism. Unlike CompileOptions these do not affect the
// compiled core, so instances on different engines share one Compiled.
type InstanceOptions struct {
	// Engine selects the execution engine; empty means EngineBSP.
	Engine Engine
	// Workers caps the BSP worker pool (0 means GOMAXPROCS). Schedulers
	// that run many Instances concurrently set this low so the product of
	// instances and workers matches the hardware.
	Workers int
	// Faults, when non-nil, consults the plan before every run and injects
	// the decided fault — a node panic, a forced bandwidth violation, or a
	// cancellation — into the engine loop (see FaultPlan). Resilience
	// tests and chaos-mode servers use it; production serving leaves it
	// nil, which costs nothing per run.
	Faults *FaultPlan
	// Collector, when non-nil, receives one RunMetrics record per
	// RunProgram/RunProgramCtx call (see RunCollector). nil costs one
	// pointer load per run; armed collection adds zero heap allocations,
	// so steady-state reused runs stay 0 allocs/op (locked by
	// TestRunCollectorAllocFree).
	Collector RunCollector
}

// NewInstance attaches a fresh per-run state slab — payload tables, coin
// streams, node cache, stats, and a persistent execution engine — to the
// compiled core. Instances are independent: each owns its engine goroutines
// and every mutable byte of a run, so concurrent RunProgram calls on
// distinct Instances of one Compiled are race-free. Call Close on the
// returned Instance to release its engine.
func (c *Compiled) NewInstance(opts InstanceOptions) (*Instance, error) {
	nw := &Instance{c: c, iopts: opts, rounds: -1}
	nw.init()
	switch opts.Engine {
	case EngineBSP, "":
		nw.buildBSP()
	case EngineChannels:
		nw.buildChannels()
	default:
		return nil, fmt.Errorf("network: unknown engine %q", opts.Engine)
	}
	return nw, nil
}
