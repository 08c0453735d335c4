// Package network simulates the CONGEST model (Peleg 2000) that the
// paper's tester is stated in (§2.1): nodes of a connected simple graph hold
// distinct O(log n)-bit identifiers, run the same program, and proceed in
// synchronous rounds, each sending one message per incident edge per round.
// The package is the model's one home — its vocabulary (model.go) and its
// engine — and Instance.RunProgram / RunProgramCtx are the only way to run a
// program. The engine is lockstep (bulk-synchronous): every round runs a
// Send phase, a delivery phase and a Receive phase over all nodes, with a
// barrier between phases, so it simulates the synchronous model directly.
// Delivery accounts every message's size in bits and can enforce a hard
// per-message budget.
//
// The expensive, immutable part of a network — the graph, the validated ID
// assignment, the precomputed port topology — is compiled ONCE into a
// shareable Compiled core; per-run mutable state (payload tables, coin
// streams, node cache, stats slabs, and a persistent worker pool) lives in
// an Instance attached to that core. Many programs run against one
// Instance, and many Instances attach to one Compiled with zero copying of
// the graph, which is what lets N concurrent queries share one cached
// topology (see internal/serve). New compiles and attaches in one step.
//
// The paper's tester is cheap per repetition — O(1/ε) rounds — so sweep
// workloads (the E4/E11 harnesses, examples/sweep, cmd/sweep) would be
// dominated by re-building the same network per run. An Instance amortizes
// all of it: topology and ID validation (shared via the Compiled), the flat
// payload tables, per-node RNG streams (reseeded in place per run), the
// stats slabs, the worker pool, which parks between runs, and, when the
// same Program value is run repeatedly and its nodes implement
// ReusableNode, the per-node program state. In that steady state RunProgram
// performs zero heap allocations per run and spawns zero goroutines (locked
// by TestNetworkRunAllocFree) while producing results byte-identical to a
// fresh Instance's (locked by TestRunProgramMatchesCongest).
//
// A node panic is isolated (the node goes silent, its pending payloads are
// dropped) and surfaces as an error; a bandwidth-budget violation aborts the
// run without burning the remaining rounds' work. The engine checks for
// failures after every phase that can fail, so the failures one check sees
// all belong to one round and phase, and the reported error is the one of
// the lowest failing vertex — the same whatever the worker count or
// scheduling.
//
// Cancellation rides the same barriers: RunProgramCtx checks its context at
// every round barrier, so a cancelled run aborts within one round as
// *ErrCanceled, takes precedence over same-run failures, and leaves the
// Instance reusable — and the checks cost nothing on a never-cancellable
// context, so steady-state runs stay allocation-free.
//
// A single Instance is NOT safe for concurrent RunProgram calls; concurrent
// workloads attach one Instance per goroutine to a shared Compiled
// (internal/serve pools warm Instances this way), or give each worker its
// own Instance (see internal/sweep).
package network

import (
	"context"
	"fmt"
	"reflect"
	"runtime"

	"cycledetect/internal/graph"
	"cycledetect/internal/xrand"
)

// Options is New's configuration: the fields of CompileOptions and
// InstanceOptions in one struct, for callers that run on a graph without
// sharing its Compiled core (the public cycledetect API, cmd/ckfree, the
// experiment harness).
type Options struct {
	// IDs optionally assigns identifiers to vertices (see CompileOptions).
	IDs []ID
	// BandwidthBits, if positive, is a hard per-message budget in bits.
	BandwidthBits int
	// Workers caps the worker pool (see InstanceOptions).
	Workers int
}

// Instance is the per-run mutable state slab of a network, attached to an
// immutable Compiled core. Build one with Compiled.NewInstance (or New,
// which compiles and attaches in one step), run many programs with
// RunProgram, release the worker pool with Close.
type Instance struct {
	c     *Compiled
	iopts InstanceOptions

	rngs []xrand.RNG // one persistent coin stream per vertex, reseeded per run

	// Node cache: nodes built by the previous run, reusable when the same
	// Program value is run again and every node implements ReusableNode.
	// resets lists the same nodes as ReusableNodes once they have been
	// reused, so later warm runs reset them with no type assertion: the
	// runtime fills an assertion's call-site cache at random, on about one
	// call in a thousand, and allocates when it does.
	nodes    []Node
	resets   []ReusableNode
	lastProg Program
	reusable bool

	// Per-run state sized by the program's round count; rebuilt only when
	// the round count changes between runs.
	rounds    int
	res       Result
	perWorker []Stats // one per worker

	// Failure state. errs[v] is vertex v's first failure; failed[v]
	// silences a panicked node's program calls for the rest of the run.
	// Both are reset lazily (hadErr) since clean runs never touch them.
	errs   []error
	failed []bool
	hadErr bool

	// Per-instance per-port payload tables (out[v][p] / in[v][p], carved
	// from two flat backing arrays).
	out, in [][][]byte

	// Engine state.
	pool                               *workerPool
	workers                            int
	hasErr                             []bool // per-worker failure flag, scanned at each phase barrier
	round                              int    // current round, read by the phase closures
	sendPhase, deliverPhase, recvPhase func(w, lo, hi int)
	outputPhase                        func(w, lo, hi int)
}

// New compiles g and attaches a single Instance in one step — the
// build-and-run entry point for callers that do not share the compiled core.
// The returned Instance owns a persistent worker pool; call Close to release
// it.
func New(g *graph.Graph, opts Options) (*Instance, error) {
	c, err := Compile(g, CompileOptions{IDs: opts.IDs, BandwidthBits: opts.BandwidthBits})
	if err != nil {
		return nil, err
	}
	return c.NewInstance(InstanceOptions{Workers: opts.Workers})
}

// init allocates the per-vertex instance state: payload tables, coin
// streams, failure slabs, and the result skeleton.
func (nw *Instance) init() {
	g := nw.c.g
	n := g.N()
	nw.rngs = make([]xrand.RNG, n)
	nw.res.IDs = nw.c.topo.ids
	nw.res.Outputs = make([]any, n)
	nw.errs = make([]error, n)
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

// Workers returns the instance's effective parallelism: the worker-pool
// width after clamping (the requested width, or GOMAXPROCS when none was
// requested, capped by the vertex count). A caller that checks instances
// out of a pool by width (corestore's Checkout) reads this to verify the
// width it asked for is the width it got.
func (nw *Instance) Workers() int { return nw.workers }

// Close releases the worker pool. The Instance must not be used afterwards;
// its Compiled remains valid (other instances may still be attached).
func (nw *Instance) Close() {
	if nw.pool != nil {
		nw.pool.close()
		nw.pool = nil
	}
}

// buildEngine allocates the engine's reusable structures: the worker pool
// and the phase closures (allocated once here; the per-run loop only
// writes nw.round between barriers).
func (nw *Instance) buildEngine() {
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
		nw.pool = newWorkerPool(workers, n)
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
				// node's round goes silent.
				clearPayloads(nw.out[v])
			}
		}
	}
	// Delivery iterates by receiver so each worker writes only its own
	// shard's in-tables; senders' out-tables are read-only during the phase.
	//ckvet:allocfree
	nw.deliverPhase = func(w, lo, hi int) {
		st := &nw.perWorker[w]
		budget := nw.c.bandwidthBits
		for v := lo; v < hi; v++ {
			ns := g.Neighbors(v)
			rp := nw.c.topo.revPort[v]
			for pt := range nw.in[v] {
				u := int(ns[pt])
				payload := nw.out[u][rp[pt]]
				nw.in[v][pt] = payload
				if payload == nil {
					continue
				}
				bits := 8 * len(payload)
				st.observe(nw.round, bits)
				if budget > 0 && bits > budget && nw.errs[v] == nil {
					ids := nw.c.topo.ids
					nw.errs[v] = &ErrBandwidth{ //ckvet:ignore budget-violation abort path, the run is over
						Round: nw.round, From: ids[u], To: ids[v],
						Bits: bits, BudgetBit: budget,
					}
					nw.hasErr[w] = true
				}
			}
		}
	}
	// The in-tables are not cleared after Receive: delivery rewrites every
	// in-slot, nil included, every round.
	//ckvet:allocfree
	nw.recvPhase = func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			if !nw.failed[v] {
				nw.recvNode(w, v)
			}
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
// panic is converted into a recorded error and the node goes silent for the
// rest of the run. They are methods (not closures) so the hot path stays
// allocation-free.
//
//ckvet:allocfree
func (nw *Instance) sendNode(w, v int) {
	defer nw.catchNode(w, v, "Send")
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

// catchNode is the deferred recovery hook of the per-node calls.
//
//ckvet:allocs recovery path, runs only when a node panicked
func (nw *Instance) catchNode(w, v int, what string) {
	if p := recover(); p != nil {
		nw.failed[v] = true
		nw.hasErr[w] = true
		if nw.errs[v] == nil {
			nw.errs[v] = panicError(nw.c.topo.ids[v], what, nw.round, p)
		}
	}
}

//ckvet:allocs recovery path, runs only when a node panicked
func panicError(id ID, what string, round int, p any) error {
	return fmt.Errorf("congest: node %d panicked in %s (round %d): %v", id, what, round, p)
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
		nw.res.Stats = newStats(rounds)
		nw.perWorker = newStatsSlab(nw.workers, rounds)
	} else {
		nw.res.Stats.reset()
		for i := range nw.perWorker {
			nw.perWorker[i].reset()
		}
	}

	if nw.hadErr {
		nw.hadErr = false
		for v := range nw.errs {
			nw.errs[v] = nil
			nw.failed[v] = false
		}
		for w := range nw.hasErr {
			nw.hasErr[w] = false
		}
	}

	ids := nw.c.topo.ids
	for v := 0; v < n; v++ {
		nw.rngs[v].SeedStream(seed, uint64(ids[v]))
	}
	if sameProgram(p, nw.lastProg) && nw.reusable {
		if len(nw.resets) == 0 {
			// The first warm run lists the nodes, so a single-use instance
			// never pays for the list.
			if nw.resets == nil {
				nw.resets = make([]ReusableNode, 0, n)
			}
			for _, nd := range nw.nodes {
				nw.resets = append(nw.resets, nd.(ReusableNode))
			}
		}
		for v, nd := range nw.resets {
			nd.Reset(nw.c.topo.info(v, &nw.rngs[v]))
		}
		return rounds
	}
	if nw.nodes == nil {
		nw.nodes = make([]Node, n)
	}
	clear(nw.resets) // keep no node of an earlier program alive
	nw.resets = nw.resets[:0]
	nw.reusable = true
	for v := 0; v < n; v++ {
		nw.nodes[v] = p.NewNode(nw.c.topo.info(v, &nw.rngs[v]))
		if _, ok := nw.nodes[v].(ReusableNode); !ok {
			nw.reusable = false
		}
	}
	nw.lastProg = p
	return rounds
}

// RunProgram executes p against the network with the given seed, which
// seeds every node's private coin stream (each node's stream derives
// deterministically from seed and the node's ID). Results are
// byte-identical on a fresh or reused Instance, whatever its worker count.
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
// every round barrier, so a cancelled run aborts within one round of the
// cancellation instead of burning the remaining rounds, and returns
// *ErrCanceled carrying the number of rounds completed. errors.Is(err,
// ctx.Err()) sees through it.
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
	res, err := nw.run(ctx, rounds)
	if c := nw.iopts.Collector; c != nil {
		nw.recordRun(c, res, err)
	}
	return res, err
}

// runCanceled finishes a context-aborted run. Like runFailed it marks the
// failure state dirty (failures recorded before the cancellation must not
// leak into the next run) and forces a node rebuild, so a post-cancel run
// is byte-identical to a fresh one. Cancellation takes precedence over any
// node failure recorded in the same run: which failures a cut-short run
// observes depends on where it was cut, so ErrCanceled is the only
// deterministic answer.
//
//ckvet:allocs aborted-run teardown, once per cancelled run
func (nw *Instance) runCanceled(round int, cause error) error {
	nw.hadErr = true
	nw.lastProg = nil
	return &ErrCanceled{Round: round, Cause: cause}
}

// pollDone is the non-blocking cancellation poll the engine loop runs at
// its barriers. done is nil for a never-cancellable context
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
// is scanned at the barriers after the phases that can fail (workers
// entries, not n).
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
// mid-state), and returns the error of the lowest failing vertex. The loop
// checks for failures after every phase that can fail, so all recorded
// failures belong to that one phase and round, and the lowest vertex is the
// same whatever the worker count or scheduling.
func (nw *Instance) runFailed() error {
	nw.hadErr = true
	nw.lastProg = nil
	v := 0
	for nw.errs[v] == nil { // some vertex failed: a worker flag was set
		v++
	}
	return nw.errs[v]
}

// abortRun finishes a run in which a node failed after `completed` full
// rounds. A cancellation observed by then wins over the failure.
func (nw *Instance) abortRun(ctx context.Context, done <-chan struct{}, completed int) error {
	if pollDone(done) {
		return nw.runCanceled(completed, context.Cause(ctx))
	}
	return nw.runFailed()
}

//ckvet:allocfree
func (nw *Instance) run(ctx context.Context, rounds int) (*Result, error) {
	n := nw.c.g.N()
	done := ctx.Done()                         // nil for a never-cancellable context: polls vanish
	runPhase := func(fn func(w, lo, hi int)) { //ckvet:ignore non-escaping, stack-allocated; locked by TestRunAllocFree
		if nw.pool == nil {
			fn(0, 0, n)
			return
		}
		nw.pool.run(fn)
	}
	for nw.round = 1; nw.round <= rounds; nw.round++ {
		// The cancellation check rides the existing round barrier: one
		// non-blocking poll per round, before the round's first phase, so an
		// abort never leaves a round half-executed.
		if pollDone(done) {
			return nil, nw.runCanceled(nw.round-1, context.Cause(ctx))
		}
		runPhase(nw.sendPhase)
		runPhase(nw.deliverPhase)
		// This round's Send panics and bandwidth violations abort the run
		// before any node receives, so no program observes an over-budget
		// payload and the remaining rounds' work is not burned.
		if nw.anyWorkerErr() {
			return nil, nw.abortRun(ctx, done, nw.round-1)
		}
		runPhase(nw.recvPhase)
		if nw.anyWorkerErr() { // this round's Receive panics
			return nil, nw.abortRun(ctx, done, nw.round)
		}
	}
	if pollDone(done) { // a cancelled run computes no outputs
		return nil, nw.runCanceled(rounds, context.Cause(ctx))
	}
	nw.round = rounds // Output runs after the last round; a panic there reports it
	runPhase(nw.outputPhase)
	if nw.anyWorkerErr() { // Output panics (cancellation already checked above)
		return nil, nw.runFailed()
	}
	for w := range nw.perWorker {
		nw.res.Stats.merge(&nw.perWorker[w])
	}
	nw.res.Stats.finalize()
	return &nw.res, nil
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
