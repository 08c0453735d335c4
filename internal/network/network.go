// Package network is the home of the CONGEST simulator's execution
// engines. The expensive, immutable part of a network — the graph, the
// validated ID assignment, the precomputed port topology — is compiled ONCE
// into a shareable Compiled core; per-run mutable state (payload tables,
// coin streams, node cache, stats slabs, and a persistent execution engine)
// lives in an Instance attached to that core. Many programs are executed
// against one Instance via RunProgram, and many Instances — on either
// engine — attach to one Compiled with zero copying of the graph, which is
// what lets N concurrent queries share one cached topology (see
// internal/serve). The one-shot entry points in internal/congest (Run,
// RunChannels, RunWith) are thin wrappers over New + RunProgram, so each
// engine loop — including bandwidth accounting, panic isolation, and error
// selection — exists exactly once, here.
//
// The paper's tester is cheap per repetition — O(1/ε) rounds — so sweep
// workloads (the E4/E11 harnesses, examples/sweep, cmd/sweep) are dominated
// by re-building the same network hundreds of times when driven through
// congest.Run. An Instance amortizes every per-run allocation that
// congest.Run pays: topology and ID validation (shared via the Compiled),
// the flat payload tables, per-node RNG streams (reseeded in place per
// run), the stats slabs, the engine itself — the BSP worker pool or the
// channels engine's per-node goroutines, which park between runs — and,
// when the same Program value is run repeatedly and its nodes implement
// ReusableNode, the per-node program state. In that steady state RunProgram
// performs zero heap allocations per run and spawns zero goroutines on BOTH
// engines (locked by TestNetworkRunAllocFree) while producing results
// byte-identical across engines and entry points (locked by
// TestRunProgramMatchesCongest).
//
// Error semantics are identical on both engines: a node panic is isolated
// (the node goes silent, its pending payloads are dropped) and surfaces as
// an error; a bandwidth-budget violation aborts the run without burning the
// remaining rounds' work. When several nodes fail, the reported error is
// the one at the earliest round, ties broken by lowest vertex — the same
// deterministic selection regardless of engine, worker count, or
// scheduling.
//
// Cancellation rides the same machinery: RunProgramCtx checks its context
// at every round barrier on both engines (the BSP loop directly; the
// channels engine through a lock-free stop-round agreement, since its
// capacity-1 protocol deadlocks unless all nodes quit after the SAME
// round), so a cancelled run aborts within one round as *ErrCanceled,
// takes precedence over same-run failures, and leaves the Instance
// reusable — and the checks cost nothing on a never-cancellable context,
// so steady-state runs stay allocation-free.
//
// A single Instance is NOT safe for concurrent RunProgram calls; concurrent
// workloads attach one Instance per goroutine to a shared Compiled
// (internal/serve pools warm Instances this way), or give each worker its
// own Instance (see internal/sweep).
package network

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"cycledetect/internal/graph"
	"cycledetect/internal/xrand"
)

// Options fixes the whole per-network configuration in one struct — the
// union of CompileOptions and InstanceOptions, kept for the build-and-run
// callers (congest's one-shot wrappers, sweep workers) that neither share a
// Compiled nor vary the engine.
type Options struct {
	// Engine selects the execution engine; empty means EngineBSP.
	Engine Engine
	// IDs optionally assigns identifiers to vertices (see Config).
	IDs []ID
	// BandwidthBits, if positive, is a hard per-message budget in bits.
	BandwidthBits int
	// Workers caps the BSP worker pool (0 means GOMAXPROCS). Sweep
	// schedulers that run many Networks concurrently set this low so the
	// product of networks and workers matches the hardware.
	Workers int
}

// nodeErr is one vertex's first failure in a run — a panic or a bandwidth
// violation — tagged with its rank so the run error can be selected
// deterministically (earliest rank, then lowest vertex).
type nodeErr struct {
	rank int
	err  error
}

// Failure ranks order same-run failures the way the BSP phase sequence
// observes them: round r's send-phase panics and bandwidth violations
// (detected at delivery) precede round r's receive-phase panics — the BSP
// engine aborts between those two phases, so a same-round Receive failure
// must never outrank a Send/delivery one — which precede everything at
// round r+1; output-phase panics come last. Ranking by phase, not just
// round, is what keeps the selected error identical across engines: the
// channels engine may record failures in phases the BSP engine never
// reached, but those always carry a higher rank than the one BSP aborted
// on.
func sendRank(round int) int    { return 2 * round }
func recvRank(round int) int    { return 2*round + 1 }
func outputRank(rounds int) int { return 2*rounds + 2 }

// failureRank maps a panicking phase to the failure's reported round and
// its selection rank. Both engines' recovery hooks go through this one
// mapping, so the cross-engine error selection cannot re-diverge.
func failureRank(what string, round, rounds int) (int, int) {
	switch what {
	case "Receive":
		return round, recvRank(round)
	case "Output":
		return rounds, outputRank(rounds)
	}
	return round, sendRank(round)
}

// Instance is the per-run mutable state slab of a network, attached to an
// immutable Compiled core. Build one with Compiled.NewInstance (or New,
// which compiles and attaches in one step), run many programs with
// RunProgram, release the engine with Close.
type Instance struct {
	c     *Compiled
	iopts InstanceOptions

	rngs []xrand.RNG // one persistent coin stream per vertex, reseeded per run

	// Node cache: nodes built by the previous run, reusable when the same
	// Program value is run again and every node implements ReusableNode.
	nodes    []Node
	lastProg Program
	reusable bool

	// Per-run state sized by the program's round count; rebuilt only when
	// the round count changes between runs.
	rounds    int
	res       Result
	perWorker []Stats // BSP: one per worker; channels: one per node

	// Unified failure state, engine-independent. errs[v] is vertex v's
	// first failure; failed[v] silences a panicked node's program calls for
	// the rest of the run. Both are reset lazily (hadErr) since clean runs
	// never touch them.
	errs   []nodeErr
	failed []bool
	hadErr bool

	// Per-instance per-port payload tables (out[v][p] / in[v][p], carved
	// from two flat backing arrays).
	out, in [][][]byte

	// BSP engine state.
	pool                               *WorkerPool
	workers                            int
	hasErr                             []bool // per-worker failure flag, scanned at each round barrier
	round                              int    // current round, read by the phase closures
	sendPhase, deliverPhase, recvPhase func(w, lo, hi int)
	outputPhase                        func(w, lo, hi int)

	// Cancellation state, armed per run by RunProgramCtx. ctxDone is the
	// run context's Done channel (nil when the context can never cancel,
	// which makes every per-round check free); chCancel is the channels
	// engine's stop-round agreement word (see chCommit).
	ctxDone  <-chan struct{}
	chCancel atomic.Uint64

	// Fault-injection state, armed per run by armFault from
	// iopts.Faults (see fault.go). faultOn is false on every run of a
	// plan-less instance, so the engine-loop guards cost one bool load.
	fault       FaultDecision
	faultOn     bool
	faultCancel context.CancelCauseFunc

	// Channels engine state: the per-directed-edge channel fabric plus one
	// persistent goroutine per node, parked on chStart between runs.
	ch        [][]chan []byte
	edgeBufs  [][][2][]byte
	chNodes   []chanNode
	chStart   []chan struct{}
	chWG      sync.WaitGroup
	chRounds  int
	abortRank atomic.Int64 // lowest failure rank so far; noAbort when clean
}

// noAbort is abortRank's value while no failure has been recorded.
const noAbort = math.MaxInt64

// New compiles g and attaches a single Instance in one step — the
// build-and-run entry point for callers that do not share the compiled core.
// The returned Instance owns a persistent engine — the BSP worker pool or
// the channels engine's parked per-node goroutines; call Close to release
// it.
func New(g *graph.Graph, opts Options) (*Instance, error) {
	c, err := Compile(g, CompileOptions{IDs: opts.IDs, BandwidthBits: opts.BandwidthBits})
	if err != nil {
		return nil, err
	}
	return c.NewInstance(InstanceOptions{Engine: opts.Engine, Workers: opts.Workers})
}

// init allocates the engine-independent per-instance state: payload
// tables, coin streams, failure slabs, and the result skeleton.
func (nw *Instance) init() {
	g := nw.c.g
	n := g.N()
	nw.rngs = make([]xrand.RNG, n)
	nw.res.IDs = nw.c.topo.IDs()
	nw.res.Outputs = make([]any, n)
	nw.errs = make([]nodeErr, n)
	nw.failed = make([]bool, n)

	nw.out = make([][][]byte, n)
	nw.in = make([][][]byte, n)
	outFlat := make([][]byte, 2*g.M())
	inFlat := make([][]byte, 2*g.M())
	off := 0
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		nw.out[v] = outFlat[off : off+deg : off+deg]
		nw.in[v] = inFlat[off : off+deg : off+deg]
		off += deg
	}
}

// Graph returns the graph the network was compiled from.
func (nw *Instance) Graph() *graph.Graph { return nw.c.g }

// Compiled returns the immutable core this instance is attached to.
func (nw *Instance) Compiled() *Compiled { return nw.c }

// Engine returns the engine the instance executes on.
func (nw *Instance) Engine() Engine {
	if nw.iopts.Engine == "" {
		return EngineBSP
	}
	return nw.iopts.Engine
}

// Workers returns the instance's effective engine parallelism: the BSP
// worker-pool width after clamping (requested width capped by GOMAXPROCS
// and the vertex count). The channels engine runs one goroutine per node
// regardless of the requested width, so it reports 1. Schedulers that
// hand out width budgets (internal/sweep's CoreProvider handshake) read
// this to verify the width they asked for is the width they got.
func (nw *Instance) Workers() int {
	if nw.Engine() == EngineChannels || nw.workers < 1 {
		return 1
	}
	return nw.workers
}

// Close releases the persistent engine — the BSP worker pool or the parked
// channel-engine node goroutines. The Instance must not be used afterwards;
// its Compiled remains valid (other instances may still be attached).
func (nw *Instance) Close() {
	if nw.pool != nil {
		nw.pool.Close()
		nw.pool = nil
	}
	for _, c := range nw.chStart {
		close(c)
	}
	nw.chStart = nil
}

// buildBSP allocates the lockstep engine's reusable structures: the worker
// pool and the phase closures (allocated once here; the per-run loop only
// writes nw.round between barriers).
func (nw *Instance) buildBSP() {
	g, n := nw.c.g, nw.c.g.N()
	workers := nw.iopts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	nw.workers = workers
	nw.hasErr = make([]bool, workers)
	if workers > 1 {
		nw.pool = NewWorkerPool(workers, n)
	}

	//ckvet:allocfree
	nw.sendPhase = func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			clearPayloads(nw.out[v])
			if nw.failed[v] {
				continue
			}
			nw.sendNode(w, v)
			if nw.failed[v] {
				// A mid-Send panic leaves out[v] partially filled; the
				// node's round goes silent, like on the channels engine.
				clearPayloads(nw.out[v])
			}
		}
	}
	// Delivery iterates by receiver so each worker writes only its own
	// shard's in-tables; senders' out-tables are read-only during the phase.
	//ckvet:allocfree
	nw.deliverPhase = func(w, lo, hi int) {
		st := &nw.perWorker[w]
		budget := nw.c.opts.BandwidthBits
		for v := lo; v < hi; v++ {
			// An injected bandwidth violation is recorded before the real
			// delivery scan, at the same receiver-side rank a real oversized
			// payload would earn, so the deterministic error selection (and
			// the channels engine, which injects at the same point) agree.
			if nw.faultOn && nw.fault.Kind == FaultBandwidth &&
				nw.round == nw.fault.Round && v == nw.fault.Node && nw.errs[v].err == nil {
				nw.errs[v] = nodeErr{rank: sendRank(nw.round), err: nw.injectedBandwidthErr(v, nw.round)}
				nw.hasErr[w] = true
			}
			ns := g.Neighbors(v)
			rp := nw.c.topo.RevPorts(v)
			for pt := range nw.in[v] {
				u := int(ns[pt])
				payload := nw.out[u][rp[pt]]
				nw.in[v][pt] = payload
				if payload == nil {
					continue
				}
				bits := 8 * len(payload)
				st.Observe(nw.round, bits)
				if budget > 0 && bits > budget && nw.errs[v].err == nil {
					ids := nw.c.topo.IDs()
					nw.errs[v] = nodeErr{rank: sendRank(nw.round), err: &ErrBandwidth{ //ckvet:ignore budget-violation abort path, the run is over
						Round: nw.round, From: ids[u], To: ids[v],
						Bits: bits, BudgetBit: budget,
					}}
					nw.hasErr[w] = true
				}
			}
		}
	}
	//ckvet:allocfree
	nw.recvPhase = func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			if !nw.failed[v] {
				nw.recvNode(w, v)
			}
			clearPayloads(nw.in[v])
		}
	}
	//ckvet:allocfree
	nw.outputPhase = func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			if !nw.failed[v] {
				nw.outputNode(w, v)
			}
		}
	}
}

// sendNode, recvNode and outputNode isolate one node's program calls: a
// panic is converted into a recorded nodeErr and the node goes silent for
// the rest of the run, exactly like on the channels engine. They are
// methods (not closures) so the BSP hot path stays allocation-free.
//
//ckvet:allocfree
func (nw *Instance) sendNode(w, v int) {
	defer nw.catchNode(w, v, "Send")
	if nw.faultOn && nw.fault.Kind == FaultPanic &&
		nw.round == nw.fault.Round && v == nw.fault.Node {
		// Panic inside the catch scope: an injected panic takes exactly the
		// recovery path a program bug would.
		panic(injectedPanic{})
	}
	nw.nodes[v].Send(nw.round, nw.out[v])
}

//ckvet:allocfree
func (nw *Instance) recvNode(w, v int) {
	defer nw.catchNode(w, v, "Receive")
	nw.nodes[v].Receive(nw.round, nw.in[v])
}

//ckvet:allocfree
func (nw *Instance) outputNode(w, v int) {
	defer nw.catchNode(w, v, "Output")
	nw.res.Outputs[v] = nw.nodes[v].Output()
}

// catchNode is the deferred recovery hook of the BSP per-node calls.
//
//ckvet:allocs recovery path, runs only when a node panicked
func (nw *Instance) catchNode(w, v int, what string) {
	if p := recover(); p != nil {
		nw.failed[v] = true
		nw.hasErr[w] = true
		if nw.errs[v].err == nil {
			round, rank := failureRank(what, nw.round, nw.rounds)
			nw.errs[v] = nodeErr{rank: rank, err: panicError(nw.c.topo.ids[v], what, round, p)}
		}
	}
}

//ckvet:allocs recovery path, runs only when a node panicked
func panicError(id ID, what string, round int, p any) error {
	err := fmt.Errorf("congest: node %d panicked in %s (round %d): %v", id, what, round, p)
	if _, ok := p.(injectedPanic); ok {
		return &ErrInjected{Kind: FaultPanic, Err: err}
	}
	return err
}

// buildChannels allocates the α-synchronizer engine's persistent
// structures: the per-directed-edge capacity-1 channels and double buffers,
// plus one goroutine per node. The goroutines park on chStart between runs
// and are released by Close, so a run on a built Instance spawns no
// goroutines at all — the fix for the per-run goroutine-per-node spawns the
// pre-inversion engine paid even on a reused Instance.
func (nw *Instance) buildChannels() {
	g, n := nw.c.g, nw.c.g.N()
	nw.ch = make([][]chan []byte, n)
	nw.edgeBufs = make([][][2][]byte, n)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		nw.ch[v] = make([]chan []byte, deg)
		for pt := range nw.ch[v] {
			nw.ch[v][pt] = make(chan []byte, 1)
		}
		nw.edgeBufs[v] = make([][2][]byte, deg)
	}
	nw.chNodes = make([]chanNode, n)
	nw.chStart = make([]chan struct{}, n)
	for v := 0; v < n; v++ {
		nw.chNodes[v] = chanNode{nw: nw, v: v}
		nw.chStart[v] = make(chan struct{}, 1)
		// The channel is passed by value: Close nils nw.chStart, and a
		// goroutine first scheduled after that must not read the field.
		go func(cn *chanNode, start <-chan struct{}) {
			for range start {
				cn.run()
				nw.chWG.Done()
			}
		}(&nw.chNodes[v], nw.chStart[v])
	}
}

// prepare re-arms the per-run state: stats slabs sized to the program's
// round count (reallocated only when the count changes), freshly seeded coin
// streams, cached-or-rebuilt nodes, and — only after a failed run — cleared
// failure state.
func (nw *Instance) prepare(p Program, seed uint64) int {
	n := nw.c.g.N()
	rounds := p.Rounds(n, nw.c.g.M())
	if rounds != nw.rounds {
		nw.rounds = rounds
		nw.res.Stats = NewStats(rounds)
		slab := nw.workers
		if nw.Engine() == EngineChannels {
			slab = n
		}
		nw.perWorker = NewStatsSlab(slab, rounds)
	} else {
		nw.res.Stats.Reset()
		for i := range nw.perWorker {
			nw.perWorker[i].Reset()
		}
	}

	if nw.hadErr {
		nw.hadErr = false
		for v := range nw.errs {
			nw.errs[v] = nodeErr{}
			nw.failed[v] = false
		}
		for w := range nw.hasErr {
			nw.hasErr[w] = false
		}
	}

	ids := nw.c.topo.IDs()
	for v := 0; v < n; v++ {
		nw.rngs[v].SeedStream(seed, uint64(ids[v]))
	}
	if sameProgram(p, nw.lastProg) && nw.reusable {
		for v := 0; v < n; v++ {
			nw.nodes[v].(ReusableNode).Reset(nw.c.topo.Info(v, &nw.rngs[v]))
		}
		return rounds
	}
	if nw.nodes == nil {
		nw.nodes = make([]Node, n)
	}
	nw.reusable = true
	for v := 0; v < n; v++ {
		nw.nodes[v] = p.NewNode(nw.c.topo.Info(v, &nw.rngs[v]))
		if _, ok := nw.nodes[v].(ReusableNode); !ok {
			nw.reusable = false
		}
	}
	nw.lastProg = p
	return rounds
}

// RunProgram executes p against the network with the given seed. Results
// are byte-identical to congest.RunWith(engine, g, p, cfg) for the same
// configuration and seed (those entry points are wrappers over this one).
//
// The returned Result (including its Outputs and Stats slices) is owned by
// the Instance and is overwritten by the next RunProgram call; callers that
// need it longer must copy what they keep. Passing the SAME Program value
// on consecutive calls lets the Instance reuse the per-node program state
// when the nodes support it (ReusableNode), which is what makes repeated
// runs allocation-free.
func (nw *Instance) RunProgram(p Program, seed uint64) (*Result, error) {
	return nw.RunProgramCtx(context.Background(), p, seed)
}

// RunProgramCtx is RunProgram with a cancellation hook: ctx is checked at
// every round barrier on BOTH engines (the BSP loop's top-of-round barrier;
// the channels engine's per-node top-of-round commit points), so a cancelled
// run aborts within O(1) rounds of the cancellation instead of burning the
// remaining rounds, and returns *ErrCanceled carrying the number of rounds
// completed. errors.Is(err, ctx.Err()) sees through it.
//
// Cancellation leaves the Instance immediately reusable: the next run is
// byte-identical to a fresh run (nodes are rebuilt, failure state cleared —
// the same recovery path an aborted-by-panic run takes). A context that can
// never be cancelled (context.Background) costs nothing per round, so
// steady-state reused runs remain allocation-free with the hook in place.
func (nw *Instance) RunProgramCtx(ctx context.Context, p Program, seed uint64) (*Result, error) {
	if ctx.Err() != nil {
		// Nothing ran: the instance is untouched and stays warm.
		return nil, &ErrCanceled{Round: 0, Cause: context.Cause(ctx)}
	}
	rounds := nw.prepare(p, seed)
	injected := false
	if nw.iopts.Faults != nil {
		ctx = nw.armFault(ctx, seed, rounds)
		injected = nw.faultOn
		defer nw.disarmFault()
	}
	var res *Result
	var err error
	if nw.Engine() == EngineChannels {
		res, err = nw.runChannels(ctx, rounds)
	} else {
		res, err = nw.runBSP(ctx, rounds)
	}
	if c := nw.iopts.Collector; c != nil {
		nw.recordRun(c, res, err, injected)
	}
	return res, err
}

// runCanceled finishes a context-aborted run. Like runFailed it marks the
// failure state dirty (failures recorded before the cancellation must not
// leak into the next run) and forces a node rebuild, so a post-cancel run
// is byte-identical to a fresh one. Cancellation takes precedence over any
// node failure recorded in the same run on both engines: which failures a
// cut-short run observes depends on where it was cut, so ErrCanceled is
// the only deterministic answer.
//
//ckvet:allocs aborted-run teardown, once per cancelled run
func (nw *Instance) runCanceled(round int, cause error) error {
	nw.hadErr = true
	nw.lastProg = nil
	return &ErrCanceled{Round: round, Cause: cause}
}

// pollDone is the non-blocking cancellation poll both engine loops use at
// their round barriers. done is nil for a never-cancellable context
// (context.Background), making the poll free on the default path.
//
//ckvet:allocfree
func pollDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// anyWorkerErr reports whether any worker recorded a failure this run; it
// is scanned once per round barrier (workers entries, not n).
//
//ckvet:allocfree
func (nw *Instance) anyWorkerErr() bool {
	for _, e := range nw.hasErr {
		if e {
			return true
		}
	}
	return false
}

// runFailed finishes an aborted run: it marks the failure state dirty for
// the next prepare, forces a node rebuild (an aborted run leaves nodes
// mid-state), and selects the deterministic run error — lowest failure
// rank (earliest round, Send/delivery before Receive within it) first,
// then lowest vertex. Both engines report through this one path, so a
// violation surfaces identically however the run was scheduled.
func (nw *Instance) runFailed() error {
	nw.hadErr = true
	nw.lastProg = nil
	best := -1
	for v := range nw.errs {
		if nw.errs[v].err == nil {
			continue
		}
		if best < 0 || nw.errs[v].rank < nw.errs[best].rank {
			best = v
		}
	}
	return nw.errs[best].err
}

//ckvet:allocfree
func (nw *Instance) runBSP(ctx context.Context, rounds int) (*Result, error) {
	n := nw.c.g.N()
	done := ctx.Done()                         // nil for a never-cancellable context: polls vanish
	runPhase := func(fn func(w, lo, hi int)) { //ckvet:ignore non-escaping, stack-allocated; locked by TestRunAllocFree
		if nw.pool == nil {
			fn(0, 0, n)
			return
		}
		nw.pool.Run(fn)
	}
	for nw.round = 1; nw.round <= rounds; nw.round++ {
		// An injected cancellation fires at its chosen round's barrier,
		// through the run's own cancellable context, so everything below —
		// the poll, the abort, the recovery — is the real client-abandon
		// path, not a shortcut.
		if nw.faultOn && nw.fault.Kind == FaultCancel && nw.round >= nw.fault.Round {
			nw.fireFaultCancel()
		}
		// The cancellation check rides the existing round barrier: one
		// non-blocking poll per round, before the round's first phase, so an
		// abort never leaves a round half-executed.
		if pollDone(done) {
			return nil, nw.runCanceled(nw.round-1, context.Cause(ctx))
		}
		runPhase(nw.sendPhase)
		runPhase(nw.deliverPhase)
		// One failure check per round, covering this round's Send panics
		// and bandwidth violations plus the previous round's Receive
		// panics. Workers cover ascending vertex ranges and every per-node
		// first failure is kept, so the selection in runFailed is
		// deterministic regardless of the worker count — and the remaining
		// rounds' work is not burned. Cancellation is re-checked first at
		// every abort point so that a run that both failed and was
		// cancelled reports ErrCanceled on either engine.
		if nw.anyWorkerErr() {
			if pollDone(done) {
				return nil, nw.runCanceled(nw.round-1, context.Cause(ctx))
			}
			return nil, nw.runFailed()
		}
		runPhase(nw.recvPhase)
	}
	if nw.anyWorkerErr() { // Receive panics in the final round
		if pollDone(done) {
			return nil, nw.runCanceled(rounds, context.Cause(ctx))
		}
		return nil, nw.runFailed()
	}
	if pollDone(done) { // mirror the channels engine: a cancelled run computes no outputs
		return nil, nw.runCanceled(rounds, context.Cause(ctx))
	}
	runPhase(nw.outputPhase)
	if nw.anyWorkerErr() { // Output panics (cancellation already checked above)
		return nil, nw.runFailed()
	}
	for w := range nw.perWorker {
		nw.res.Stats.Merge(&nw.perWorker[w])
	}
	nw.res.Stats.Finalize()
	return &nw.res, nil
}

// runChannels executes one program run over the persistent channel fabric:
// capacity-1 channels, per-edge double buffers alternated by round parity,
// and the parked per-node goroutines woken for exactly one run each.
//
// Each node repeats, for every round: push this round's payload into each
// outgoing channel, then pull one payload from each incoming channel.
// Channels have capacity 1, so a sender blocks only while its neighbor
// still owes a pull for the previous round; because each channel is FIFO
// and carries exactly one payload per round (nil payloads included), the
// r-th value pulled on a channel is exactly the r-th round's message, and
// the execution is semantically identical to the lockstep engine even
// though distant nodes may be in different rounds simultaneously.
//
// Because a receiver may still be reading round r's payload while the
// sender is already producing round r+1's, the engine does not hand the
// program's own out-slice across the channel: each directed edge owns two
// reusable buffers, alternated by round parity, and the payload bytes are
// copied into the current one at push time. The capacity-1 channel
// guarantees the slot being overwritten for round r+2 was pulled — and
// therefore fully consumed — at round r, so two slots suffice, programs may
// reuse their out buffers every round (see Node), and steady-state rounds
// allocate nothing.
//
//ckvet:allocfree
func (nw *Instance) runChannels(ctx context.Context, rounds int) (*Result, error) {
	n := nw.c.g.N()
	nw.chRounds = rounds
	nw.abortRank.Store(noAbort)
	nw.ctxDone = ctx.Done()
	nw.chCancel.Store(chNoStop << 32)
	nw.chWG.Add(n)
	for _, c := range nw.chStart {
		c <- struct{}{}
	}
	nw.chWG.Wait()
	// Drop the done channel now that every node has parked: an idle
	// Instance must not keep the finished request's context reachable.
	nw.ctxDone = nil

	if stop := nw.chCancel.Load() >> 32; stop != chNoStop {
		return nil, nw.runCanceled(int(stop), context.Cause(ctx))
	}
	if nw.abortRank.Load() != noAbort {
		return nil, nw.runFailed()
	}
	for v := 0; v < n; v++ {
		nw.res.Stats.Merge(&nw.perWorker[v])
	}
	nw.res.Stats.Finalize()
	return &nw.res, nil
}

// chNoStop is the stop-round sentinel of chCancel's high 32 bits while no
// cancellation has been observed.
const chNoStop = (1 << 32) - 1

// StopRoundStride is the channels engine's stop-round commit granularity:
// node goroutines reserve rounds in blocks of this many, so the armed-context
// CAS on the shared agreement word runs once per block instead of once per
// round — the agreement cost of an armed context drops by the stride factor
// while the per-round cancellation POLL (a read-only, contention-free
// channel peek) still runs every round. The trade is bounded abort latency:
// a cancelled run stops at the end of the furthest committed block, at most
// StopRoundStride-1 rounds past the round where cancellation was observed
// (plus the engine's usual ≤ diameter inter-node drift).
// BenchmarkCancelLatency pins the bound.
const StopRoundStride = 8

// The channels engine has no global barrier to hang a cancellation check
// on — nodes drift up to one round apart — so aborting early needs the
// nodes to AGREE on a common final round: the capacity-1 channel protocol
// deadlocks unless every node completes exactly the same set of rounds
// (each pull of round r needs the neighbor's round-r push, and each push of
// round r waits on the neighbor's round r-1 pull, forcing equal stop rounds
// across every edge of the connected graph). The agreement lives in one
// packed atomic word — high 32 bits the agreed stop round (chNoStop until a
// cancellation is observed), low 32 bits the highest round any node has
// committed to — so commit and check are a single linearizable CAS and no
// node can slip into a round the stop decision didn't cover.
//
// chCommit records a node goroutine's intent to run the block of
// StopRoundStride rounds starting at r (a block start: r ≡ 1 mod the
// stride) and reports whether it may: committing advances the max to the
// block's END (clamped to the run's round count), so a later stop decision
// is always a block boundary every in-flight node will reach, and a block
// start past an already-agreed stop is refused. Every node therefore
// executes exactly rounds 1..stop. Because commits only happen at block
// starts and stops only freeze at committed block ends, max never exceeds a
// frozen stop and stop never lands mid-block.
//
//ckvet:allocfree
func (nw *Instance) chCommit(r int) bool {
	end := r + StopRoundStride - 1
	if end > nw.chRounds {
		end = nw.chRounds
	}
	for {
		w := nw.chCancel.Load()
		stop, max := w>>32, w&0xFFFFFFFF
		if uint64(r) > stop {
			return false
		}
		if uint64(end) <= max {
			return true // an earlier committer already covers this block
		}
		if nw.chCancel.CompareAndSwap(w, stop<<32|uint64(end)) {
			return true
		}
	}
}

// chCancelRun is run by the first node goroutine that observes the context
// cancelled: it freezes the stop round at the highest committed round — the
// end of the furthest reserved block — once. Nodes at lower rounds still
// complete the protocol up to it, at most StopRoundStride-1 rounds past the
// observation point plus the engine's ≤ diameter drift, and then every
// goroutine parks.
//
//ckvet:allocfree
func (nw *Instance) chCancelRun() {
	for {
		w := nw.chCancel.Load()
		stop, max := w>>32, w&0xFFFFFFFF
		if stop != chNoStop {
			return
		}
		if nw.chCancel.CompareAndSwap(w, max<<32|max) {
			return
		}
	}
}

// chanNode is one node's persistent channel-engine runner. Its goroutine
// parks on nw.chStart[v] between runs; run executes exactly one program
// run.
type chanNode struct {
	nw     *Instance
	v      int
	round  int
	failed bool
}

// recordFailure stores v's first failure and drags abortRank down to the
// lowest failure rank seen so far. Nodes past that rank's round go silent —
// they keep the push/pull protocol alive (so no neighbor deadlocks) but
// skip program calls, traffic accounting, and budget checks, which both
// stops burning the remaining rounds' work and keeps the recorded failure
// set deterministic: a round whose send rank is ≤ abortRank is never
// silenced, so every failure that could win the lowest-rank/lowest-vertex
// selection is always recorded, on any schedule.
func (cn *chanNode) recordFailure(rank int, err error) {
	nw := cn.nw
	if nw.errs[cn.v].err == nil {
		nw.errs[cn.v] = nodeErr{rank: rank, err: err}
	}
	for {
		cur := nw.abortRank.Load()
		if int64(rank) >= cur || nw.abortRank.CompareAndSwap(cur, int64(rank)) {
			return
		}
	}
}

// send/receive/output isolate the node's program calls; catch is their
// deferred recovery hook. Methods, not closures, so a run allocates only
// when a node actually panics.
//
//ckvet:allocfree
func (cn *chanNode) send(out [][]byte) {
	defer cn.catch("Send")
	nw := cn.nw
	if nw.faultOn && nw.fault.Kind == FaultPanic &&
		cn.round == nw.fault.Round && cn.v == nw.fault.Node {
		// Mirror the BSP engine: the injected panic unwinds through the
		// same catch hook a real Send panic would.
		panic(injectedPanic{})
	}
	nw.nodes[cn.v].Send(cn.round, out)
}

//ckvet:allocfree
func (cn *chanNode) receive(in [][]byte) {
	defer cn.catch("Receive")
	cn.nw.nodes[cn.v].Receive(cn.round, in)
}

//ckvet:allocfree
func (cn *chanNode) output() {
	defer cn.catch("Output")
	cn.nw.res.Outputs[cn.v] = cn.nw.nodes[cn.v].Output()
}

//ckvet:allocs recovery path, runs only when a node panicked
func (cn *chanNode) catch(what string) {
	if p := recover(); p != nil {
		cn.failed = true
		round, rank := failureRank(what, cn.round, cn.nw.chRounds)
		cn.recordFailure(rank, panicError(cn.nw.c.topo.ids[cn.v], what, round, p))
	}
}

//ckvet:allocfree
func (cn *chanNode) run() {
	nw := cn.nw
	v := cn.v
	cn.failed = false
	st := &nw.perWorker[v]
	ns := nw.c.g.Neighbors(v)
	rp := nw.c.topo.revPort[v]
	deg := len(ns)
	out, in := nw.out[v], nw.in[v]
	budget := nw.c.opts.BandwidthBits
	ids := nw.c.topo.ids
	rounds := nw.chRounds
	ctxDone := nw.ctxDone
	for r := 1; r <= rounds; r++ {
		// An injected cancellation: the chosen node cancels the run's own
		// context at its chosen round; the stop-round agreement below then
		// winds every node down exactly as a real client abandon would.
		if nw.faultOn && nw.fault.Kind == FaultCancel && v == nw.fault.Node && r >= nw.fault.Round {
			nw.fireFaultCancel()
		}
		if ctxDone != nil { // the run context can cancel: poll every round
			if pollDone(ctxDone) {
				nw.chCancelRun()
			}
			// Reserve rounds a block at a time: the CAS on the shared
			// agreement word runs once per StopRoundStride rounds, so the
			// armed path's steady-state cost is the poll above, not
			// cross-core contention on chCancel.
			if (r-1)%StopRoundStride == 0 && !nw.chCommit(r) {
				break // past the agreed stop round; park
			}
		}
		cn.round = r
		// A round whose ranks are at or below the current abort rank always
		// runs in full; abortRank only ever decreases, so the round the
		// selected error belongs to is never silenced anywhere (see
		// recordFailure).
		live := !cn.failed && int64(sendRank(r)) <= nw.abortRank.Load()
		clearPayloads(out)
		if live {
			cn.send(out)
			if cn.failed {
				clearPayloads(out)
			}
		}
		for pt := 0; pt < deg; pt++ {
			payload := out[pt]
			if payload != nil {
				// Detach from the program's buffer: copy into this edge's
				// slot for the round's parity.
				slot := &nw.edgeBufs[v][pt][r&1]
				*slot = append((*slot)[:0], payload...)
				payload = *slot
			}
			// Push into the neighbor's inbound channel for the edge.
			nw.ch[int(ns[pt])][rp[pt]] <- payload
		}
		// An injected bandwidth violation is recorded before the real
		// delivery scan (recordFailure keeps only the node's first error),
		// mirroring the BSP engine's injection point so the cross-engine
		// error selection resolves identically.
		if nw.faultOn && nw.fault.Kind == FaultBandwidth && r == nw.fault.Round && v == nw.fault.Node {
			cn.recordFailure(sendRank(r), nw.injectedBandwidthErr(v, r))
		}
		for pt := 0; pt < deg; pt++ {
			payload := <-nw.ch[v][pt]
			in[pt] = payload
			if payload == nil || !live {
				continue
			}
			// Traffic accounting and budget enforcement happen at the
			// receiver, mirroring the BSP delivery phase, so both engines
			// attribute a violation to the same (round, receiver) and the
			// shared selection in runFailed yields the identical error.
			bits := 8 * len(payload)
			st.Observe(r, bits)
			if budget > 0 && bits > budget {
				if nw.errs[v].err == nil {
					cn.recordFailure(sendRank(r), &ErrBandwidth{ //ckvet:ignore budget-violation abort path, the run is over
						Round: r, From: ids[int(ns[pt])], To: ids[v],
						Bits: bits, BudgetBit: budget,
					})
				}
				// A program must never observe a budget-violating message:
				// the BSP engine aborts between delivery and Receive, so
				// its programs never see one either.
				in[pt] = nil
			}
		}
		if !cn.failed && live {
			cn.receive(in)
		}
	}
	cn.round = rounds
	// Output runs unless a ROUND-phase failure happened: an output-phase
	// panic elsewhere must not suppress this node's Output (the BSP engine
	// runs the whole output phase too, and skipping here would make the
	// recorded set — and thus the lowest-vertex tie-break — depend on
	// goroutine scheduling). A cancelled run computes no outputs at all —
	// its Result is never returned.
	if !cn.failed && nw.abortRank.Load() > int64(recvRank(rounds)) &&
		nw.chCancel.Load()>>32 == chNoStop {
		cn.output()
	}
}

// sameProgram reports whether two Program values are the same comparable
// value (typically the same pointer). Non-comparable program types are never
// considered equal rather than letting the == panic.
func sameProgram(a, b Program) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

//ckvet:allocfree
func clearPayloads(ps [][]byte) {
	for i := range ps {
		ps[i] = nil
	}
}
