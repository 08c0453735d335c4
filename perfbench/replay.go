package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"cycledetect/internal/core"
	"cycledetect/internal/corestore"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
)

// replayResult is what a traced replay measured besides its spans.
type replayResult struct {
	ops      int
	rounds   int64
	messages int64
	bits     int64
	maxSeqs  int
	split    bool // every run's phase split held (single worker, vertex order)
	errs     []error
}

func (rr *replayResult) count(res *network.Result, dec core.Decision) {
	rr.rounds += int64(res.Stats.Rounds)
	rr.messages += res.Stats.MessagesSent
	rr.bits += res.Stats.TotalBits
	rr.maxSeqs = max(rr.maxSeqs, dec.MaxSeqs)
}

// replayWorker is what serve keeps per warm instance: the program values
// that let consecutive same-parameter queries take the reusable-node path.
type replayWorker struct {
	tester *core.Tester
	det    *core.EdgeDetector
	prog   *phaseProgram
}

// program returns the worker's wrapped program for req, reusing the last
// one when its parameters match (the condition serve's worker.arm uses).
func (w *replayWorker) program(req *serve.QueryRequest) *phaseProgram {
	if req.Op == serve.OpDetect {
		if w.det == nil || w.det.K != req.K || w.det.U != req.Edge[0] || w.det.V != req.Edge[1] {
			w.det = &core.EdgeDetector{K: req.K, U: req.Edge[0], V: req.Edge[1]}
			w.prog = newPhaseProgram(w.det)
		}
		return w.prog
	}
	if w.tester == nil || w.tester.K != req.K || w.tester.Eps != req.Eps || w.tester.Reps != req.Reps {
		w.tester = &core.Tester{K: req.K, Eps: req.Eps, Reps: req.Reps}
		w.prog = newPhaseProgram(w.tester)
	}
	return w.prog
}

// runTraced executes prog on inst under a network.run span and splits the
// run into phases when the instance has a single worker. It reports whether
// the split held.
func runTraced(ctx context.Context, rec *recorder, parent int32, inst *network.Instance,
	prog *phaseProgram, seed uint64) (*network.Result, bool, error) {
	run := rec.begin("network.run", parent)
	if inst.Workers() != 1 {
		// Several workers call the nodes concurrently, so the boundaries the
		// wrapper reads do not exist: run the real program unwrapped.
		res, err := inst.RunProgramCtx(ctx, prog.inner, seed)
		rec.end(run)
		return res, false, err
	}
	prog.arm(rec, run)
	res, err := inst.RunProgramCtx(ctx, prog, seed)
	rec.end(run)
	return res, !prog.broken, err
}

// replayQuery replays a query workload's first inputs — its set-up
// requests, then replayOps more — one request at a time through the public
// functions serve.Query calls: decode; build, connectivity check and
// fingerprint for explicit graphs; corestore checkout; the engine run;
// Summarize; encode.
func replayQuery(ctx context.Context, ld *queryLoad, p params, rec *recorder) replayResult {
	rr := replayResult{split: true}
	store := corestore.New(corestore.Options{MaxGraphs: ld.opts.MaxGraphs, DefaultWorkers: 1})
	defer store.Close()
	for i := 0; i < ld.setupOps+p.replayOps; i++ {
		in := &ld.inputs[i%len(ld.inputs)]
		if err := replayOne(ctx, ld, in, store, rec, &rr, i >= ld.setupOps); err != nil {
			rr.errs = append(rr.errs, fmt.Errorf("replayed request %d: %w", i, err))
		}
	}
	return rr
}

func replayOne(ctx context.Context, ld *queryLoad, in *queryInput, store *corestore.Store,
	rec *recorder, rr *replayResult, checkCache bool) error {
	op := rec.begin("op", -1)
	defer func() {
		if rec.spans[op].End == 0 {
			rec.end(op)
		}
	}()

	sp := rec.begin("serve.decode", op)
	var req serve.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(in.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	rec.end(sp)
	if err != nil {
		return err
	}

	var (
		key   string
		build func() (*graph.Graph, error)
		g     *graph.Graph
		co    int32 // the checkout span, parent of a family graph's generation
	)
	if len(req.Graph.Edges) > 0 {
		sp = rec.begin("graph.build", op)
		b := graph.NewBuilder(req.Graph.N)
		for _, e := range req.Graph.Edges {
			b.AddEdge(e[0], e[1])
		}
		g = b.Build()
		rec.end(sp)
		sp = rec.begin("graph.connected", op)
		connected := graph.Connected(g)
		rec.end(sp)
		if !connected {
			return fmt.Errorf("graph is not connected")
		}
		sp = rec.begin("graph.fingerprint", op)
		key = "fp:" + g.Fingerprint()
		rec.end(sp)
		build = func() (*graph.Graph, error) { return g, nil }
	} else {
		gs := sweep.GraphSpec{Family: req.Graph.Family, N: req.Graph.N, M: req.Graph.M}
		key = sweep.FamilyKey(gs, req.K, req.Eps, req.Graph.Seed)
		build = func() (*graph.Graph, error) {
			sp := rec.begin("graph.generate", co)
			defer rec.end(sp)
			var err error
			g, err = sweep.BuildGraph(gs, req.K, req.Eps, req.Graph.Seed)
			return g, err
		}
	}

	co = rec.begin("corestore.checkout", op)
	h, hit, err := store.Checkout(ctx, key, build, network.EngineBSP, 1)
	rec.end(co)
	if err != nil {
		return err
	}
	spawned := h.Scratch == nil
	w, _ := h.Scratch.(*replayWorker)
	if w == nil {
		w = &replayWorker{}
		h.Scratch = w
	}
	res, split, err := runTraced(ctx, rec, op, h.Inst, w.program(&req), req.Seed)
	if err != nil {
		store.Release(h)
		return err
	}
	sp = rec.begin("core.summarize", op)
	got, decision := answerOf(res)
	rec.end(sp)
	rr.ops++
	rr.count(res, decision)
	resp := &serve.QueryResponse{
		Rejected: got.Rejected, RejectingIDs: got.RejectingIDs, Witness: got.Witness,
		N: h.Inst.Graph().N(), M: h.Inst.Graph().M(), Rounds: got.Rounds,
		Messages: got.Messages, TotalBits: got.TotalBits,
		MaxMessageBits: res.Stats.MaxMessageBits, MaxSeqs: decision.MaxSeqs,
		Cache: "miss",
	}
	if hit {
		resp.Cache = "hit"
	}
	compiled := h.Inst.Compiled()
	store.Release(h)
	sp = rec.begin("serve.encode", op)
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(resp)
	rec.end(sp)
	rec.end(op)
	if err != nil {
		return err
	}
	rr.split = rr.split && split

	// On a miss Checkout compiled the graph and fingerprinted it, and on a
	// spawn it built an instance, all internally: time those inner calls
	// again on the same input, outside every open span, and charge them to
	// their own layers.
	if !hit {
		rec.timeEst("network.compile", co, func() { _, err = network.Compile(compiled.Graph(), network.CompileOptions{}) })
		if err != nil {
			return err
		}
		rec.timeEst("graph.fingerprint", co, func() { _ = compiled.Graph().Fingerprint() })
	}
	if spawned {
		var inst *network.Instance
		rec.timeEst("network.instance", co, func() {
			inst, err = compiled.NewInstance(network.InstanceOptions{Engine: network.EngineBSP, Workers: 1})
		})
		if err != nil {
			return err
		}
		inst.Close()
	}
	return ld.checkAnswer(resp, in, checkCache)
}

// graphKey names a sweep job's graph the way the scheduler does: only the
// "far" family depends on the job's k and eps.
type graphKey struct {
	gs  sweep.GraphSpec
	k   int
	eps float64
}

func jobGraphKey(job sweep.Job) graphKey {
	if job.Graph.Family == "far" {
		return graphKey{gs: job.Graph, k: job.K, eps: job.Eps}
	}
	return graphKey{gs: job.Graph}
}

// replaySweep replays the first pass of the sweep workload job by job, the
// way the standalone provider and the scheduler run it: each distinct graph
// generated and compiled once, a warm instance per graph, one program value
// per job, trials seeded as the scheduler seeds them. One operation is one
// job (one row). Its rows must match the same golden as the timed passes.
func replaySweep(ctx context.Context, spec *sweep.Spec, golden []string, rec *recorder) replayResult {
	rr := replayResult{split: true}
	if err := spec.Validate(); err != nil {
		rr.errs = append(rr.errs, err)
		return rr
	}
	insts := map[graphKey]*network.Instance{}
	defer func() {
		for _, inst := range insts {
			inst.Close()
		}
	}()
	jobs, _ := spec.Jobs()
	var rows []sweep.Result
	for _, job := range jobs {
		tester := &core.Tester{K: job.K, Eps: job.Eps, Reps: spec.Reps}
		prog := newPhaseProgram(tester)
		row := sweep.Result{Job: job, Trials: spec.Trials, Reps: tester.Repetitions()}
		var sumMsgs, sumBits int64
		op := rec.begin("op", -1)
		inst, err := sweepInstance(rec, op, job, spec.Seed, insts)
		if err != nil {
			rec.end(op)
			rr.errs = append(rr.errs, err)
			return rr
		}
		for t := 0; t < spec.Trials; t++ {
			res, split, err := runTraced(ctx, rec, op, inst, prog, trialSeed(spec.Seed, job.SeedKey, t))
			if err != nil {
				rec.end(op)
				rr.errs = append(rr.errs, err)
				return rr
			}
			sp := rec.begin("core.summarize", op)
			dec := core.Summarize(res.Outputs, res.IDs)
			rec.end(sp)
			rr.split = rr.split && split
			rr.count(res, dec)
			if dec.Reject {
				row.Rejects++
			}
			row.MaxSeqs = max(row.MaxSeqs, dec.MaxSeqs)
			row.MaxMessageBits = max(row.MaxMessageBits, res.Stats.MaxMessageBits)
			row.Rounds = res.Stats.Rounds
			row.N, row.M = inst.Graph().N(), inst.Graph().M()
			sumMsgs += res.Stats.MessagesSent
			sumBits += res.Stats.TotalBits
		}
		rec.end(op)
		rr.ops++
		row.RejectRate = float64(row.Rejects) / float64(row.Trials)
		row.AvgMessages = float64(sumMsgs) / float64(row.Trials)
		row.AvgBits = float64(sumBits) / float64(row.Trials)
		rows = append(rows, row)
	}
	rr.errs = append(rr.errs, checkRows(rows, golden)...)
	return rr
}

// sweepInstance returns the warm instance of a job's graph, generating,
// compiling and spawning it under spans on first use.
func sweepInstance(rec *recorder, op int32, job sweep.Job, seed uint64,
	insts map[graphKey]*network.Instance) (*network.Instance, error) {
	key := jobGraphKey(job)
	if inst := insts[key]; inst != nil {
		return inst, nil
	}
	sp := rec.begin("graph.generate", op)
	g, err := sweep.BuildGraph(job.Graph, job.K, job.Eps, seed)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("network.compile", op)
	c, err := network.Compile(g, network.CompileOptions{})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	// The scheduler splits GOMAXPROCS across its workers for each
	// instance's BSP width.
	workers := max(1, runtime.GOMAXPROCS(0)/sweepSpec(1).Workers)
	sp = rec.begin("network.instance", op)
	inst, err := c.NewInstance(network.InstanceOptions{Engine: network.EngineBSP, Workers: workers})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	insts[key] = inst
	return inst, nil
}
