package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// params sizes one run. The benchmark uses defaultParams; the smoke test
// shrinks them.
type params struct {
	seconds float64 // length of the timed phase
	maxOps  int     // stop the timed phase after this many operations (0: no limit)
	setups  int     // set-ups per run; setup_s is their median
	warmCPU float64 // seconds both cores spin before anything is timed

	calRounds int // reference-kernel rounds per host measurement (0: no calibration)

	hitSeeds int // length of query-hit's replayed request-seed list

	poolSize  int // query-miss: distinct graphs cycled through
	poolN     int
	poolM     int
	maxGraphs int // query-miss: serve.Options.MaxGraphs, below poolSize

	sweepTrials int // trials per job in sweep's timed passes

	replayOps int // query workloads: traced operations after the set-up inputs
}

func defaultParams(seconds float64) params {
	return params{
		seconds:     seconds,
		setups:      5,
		warmCPU:     2,
		calRounds:   refRounds,
		hitSeeds:    16,
		poolSize:    24,
		poolN:       2048,
		poolM:       8192,
		maxGraphs:   16,
		sweepTrials: 2,
		replayOps:   32,
	}
}

// The query-hit request shape: the `make load` query (k=7, eps=0.1 on the
// seed-7 gnm(256,1024) graph), 82 repetitions and 328 rounds.
const (
	hitK         = 7
	hitEps       = 0.1
	hitGraphSeed = 7
	hitRounds    = 328
	missK        = 7
	missRounds   = missK / 2
)

var hitGraph = sweep.GraphSpec{Family: "gnm", N: 256, M: 1024}

// answer is the part of a query response the library determines.
type answer struct {
	Rejected     bool
	Witness      []int64
	RejectingIDs []int64
	Rounds       int
	Messages     int64
	TotalBits    int64
}

func answerOf(res *network.Result) (answer, core.Decision) {
	dec := core.Summarize(res.Outputs, res.IDs)
	return answer{
		Rejected:     dec.Reject,
		Witness:      dec.Witness,
		RejectingIDs: dec.RejectingIDs,
		Rounds:       res.Stats.Rounds,
		Messages:     res.Stats.MessagesSent,
		TotalBits:    res.Stats.TotalBits,
	}, dec
}

// queryInput is one request of a query workload with the library's own
// answer to it.
type queryInput struct {
	body []byte
	req  serve.QueryRequest
	g    *graph.Graph // the graph the query runs on, for the witness check
	want answer
}

// queryLoad is a query workload: the request list the clients replay in
// order, the server configuration, and what every answer must show.
type queryLoad struct {
	name      string
	inputs    []queryInput
	opts      serve.Options
	setupOps  int // requests that make up set-up (the first query of each client, or one pool pass)
	rounds    int
	wantCache string
}

// hitLoad builds query-hit: one request shape, replayed with seeds from a
// list derived from seed.
func hitLoad(seed uint64, p params) (*queryLoad, error) {
	g, err := sweep.BuildGraph(hitGraph, hitK, hitEps, hitGraphSeed)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(xrand.Mix64(seed ^ 0x68697473656564)) // "hitseed"
	ld := &queryLoad{name: "query-hit", setupOps: 2, rounds: hitRounds, wantCache: "hit"}
	for i := 0; i < p.hitSeeds; i++ {
		req := serve.QueryRequest{
			Graph: serve.GraphRequest{Family: hitGraph.Family, N: hitGraph.N, M: hitGraph.M, Seed: hitGraphSeed},
			K:     hitK, Eps: hitEps, Seed: rng.Uint64() >> 11,
		}
		ld.inputs = append(ld.inputs, queryInput{req: req, g: g})
	}
	err = forEachParallel(len(ld.inputs), func(lo, hi int) error {
		nw, err := network.New(g, network.Options{Workers: 1})
		if err != nil {
			return err
		}
		defer nw.Close()
		prog := &core.Tester{K: hitK, Eps: hitEps}
		for i := lo; i < hi; i++ {
			res, err := nw.RunProgram(prog, ld.inputs[i].req.Seed)
			if err != nil {
				return err
			}
			ld.inputs[i].want, _ = answerOf(res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ld, ld.encodeBodies()
}

// missLoad builds query-miss: a pool of distinct connected G(n, m) graphs,
// each uploaded as an explicit edge list with a detect query on one fixed
// edge. The server caches fewer graphs than the pool holds, so cycling
// through the pool misses on every request.
func missLoad(seed uint64, p params) (*queryLoad, error) {
	rng := xrand.New(xrand.Mix64(seed ^ 0x6d697373706f6f6c)) // "misspool"
	ld := &queryLoad{
		name:      "query-miss",
		opts:      serve.Options{MaxGraphs: p.maxGraphs},
		setupOps:  p.poolSize,
		rounds:    missRounds,
		wantCache: "miss",
	}
	seen := map[string]bool{}
	for len(ld.inputs) < p.poolSize {
		g := graph.ConnectedGNM(p.poolN, p.poolM, rng)
		if fp := g.Fingerprint(); seen[fp] {
			continue
		} else {
			seen[fp] = true
		}
		edges := g.Edges()
		e := edges[rng.Intn(len(edges))]
		list := make([][2]int, len(edges))
		for i, ed := range edges {
			list[i] = [2]int{ed.U, ed.V}
		}
		ld.inputs = append(ld.inputs, queryInput{
			req: serve.QueryRequest{
				Graph: serve.GraphRequest{N: p.poolN, Edges: list},
				Op:    serve.OpDetect, K: missK,
				Edge: &[2]int64{int64(e.U), int64(e.V)},
			},
			g: g,
		})
	}
	err := forEachParallel(len(ld.inputs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			in := &ld.inputs[i]
			nw, err := network.New(in.g, network.Options{Workers: 1})
			if err != nil {
				return err
			}
			res, err := nw.RunProgram(&core.EdgeDetector{K: missK, U: in.req.Edge[0], V: in.req.Edge[1]}, 0)
			if err == nil {
				in.want, _ = answerOf(res)
			}
			nw.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ld, ld.encodeBodies()
}

func (ld *queryLoad) encodeBodies() error {
	for i := range ld.inputs {
		b, err := json.Marshal(&ld.inputs[i].req)
		if err != nil {
			return fmt.Errorf("encoding request %d: %w", i, err)
		}
		ld.inputs[i].body = b
	}
	return nil
}

// forEachParallel splits [0, n) into one contiguous share per core and runs
// fn on each share concurrently. Computing the reference answers this way
// also keeps both cores busy before anything is timed.
func forEachParallel(n int, fn func(lo, hi int) error) error {
	workers := 2
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// The sweep workload's spec: three graph families × k heaviest first × two
// eps values, on the BSP engine with two scheduler workers. Its seed is
// fixed, because its rows are checked against a committed golden.
const sweepSeed = 11

func sweepSpec(trials int) *sweep.Spec {
	return &sweep.Spec{
		Name: "perfbench",
		Graphs: []sweep.GraphSpec{
			{Family: "gnm", N: 256, M: 1024},
			{Family: "far", N: 256},
			{Family: "tree", N: 256},
		},
		K:       []int{9, 7, 5, 3},
		Eps:     []float64{0.1, 0.05},
		Engines: []string{string(network.EngineBSP)},
		Trials:  trials,
		Seed:    sweepSeed,
		Workers: 2,
	}
}

// trialSeed is the coin-stream seed of one sweep trial. It repeats the
// scheduler's derivation so the traced replay runs the very trials the
// sweep runs; the replay's rows are checked against the same golden, so a
// change to the derivation shows up as a failed replay, not as silently
// different work.
func trialSeed(base uint64, seedKey, trial int) uint64 {
	return xrand.Mix64(xrand.Mix64(base+0x9e3779b97f4a7c15*uint64(seedKey+1)) + uint64(trial))
}
