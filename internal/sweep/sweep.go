// Package sweep is a concurrent parameter-sweep scheduler over compiled
// network cores: a declarative Spec (grids over graph family, k, ε,
// trials) is expanded into jobs, fanned across a sharded worker pool, and
// the per-job aggregates are streamed incrementally, in job order, to
// CSV/JSON sinks. Run and RunCtx are the one way to run a sweep; cmd/sweep
// and examples/sweep are thin front ends over them.
//
// Each job's trials run on an exclusive warm network.Instance checked out
// of a corestore.Store, the one cache of compiled cores, under the graph's
// FamilyKey. By default a sweep runs on a private store that compiles each
// distinct graph once for the whole sweep and pools warm instances per
// graph; a caller may pass its own store instead.
//
// This is the workload the paper makes cheap: each trial costs O(1/ε)
// CONGEST rounds (Theorem 1), so a sweep's cost is dominated by per-run
// setup unless networks are reused. Streaming emission follows the
// enumeration-complexity view (incremental time and delay, not batch
// tables): a consumer sees job i's aggregate as soon as jobs 0..i are done,
// while later jobs are still running. The same view motivates early
// termination: every trial runs under the sweep's context via
// RunProgramCtx, so cancelling it (a SIGINT to cmd/sweep) stops work within
// one CONGEST round — mid-trial, not at trial or job boundaries.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"cycledetect/internal/combin"
	"cycledetect/internal/core"
	"cycledetect/internal/corestore"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// GraphSpec names one graph family instance of the grid.
type GraphSpec struct {
	// Family is one of "gnm" (connected G(n,m)), "far" (provably ε-far from
	// Ck-free; depends on the job's k and ε), "tree" (random tree),
	// "cycle" (C_n), or "complete" (K_n).
	Family string `json:"family"`
	// N is the vertex count.
	N int `json:"n"`
	// M is the edge count (gnm only; defaults to 4n).
	M int `json:"m,omitempty"`
}

func (gs GraphSpec) String() string {
	if gs.Family == "gnm" {
		// Resolve the 4n default so logs and errors name the graph that is
		// actually built, not "m=0".
		return fmt.Sprintf("%s(n=%d,m=%d)", gs.Family, gs.N, gs.resolvedM())
	}
	return fmt.Sprintf("%s(n=%d)", gs.Family, gs.N)
}

// resolvedM is the edge count the gnm generator will actually use: M, or
// the documented 4n default when M is omitted.
func (gs GraphSpec) resolvedM() int {
	if gs.M > 0 {
		return gs.M
	}
	return 4 * gs.N
}

// canonical reduces gs to the fields BuildGraph reads: gnm keeps its
// resolved edge count, every other family drops M. Specs with equal
// canonical forms build the same graph from the same seed.
func (gs GraphSpec) canonical() GraphSpec {
	if gs.Family == "gnm" {
		gs.M = gs.resolvedM()
	} else {
		gs.M = 0
	}
	return gs
}

// seeded reports whether BuildGraph's output depends on its seed; the cycle
// and complete families are fixed graphs.
func (gs GraphSpec) seeded() bool {
	return gs.Family != "cycle" && gs.Family != "complete"
}

// MaxFamilyEdges bounds the edge count of a generated graph. A spec names a
// graph's size in a few bytes, so without a bound one small request could
// make BuildGraph allocate without limit.
const MaxFamilyEdges = 1 << 20

// Validate checks that gs names a known family, at least 2 vertices and at
// most MaxFamilyEdges edges. The edge count is read off the spec, so an
// oversized graph is refused before anything is built.
func (gs GraphSpec) Validate() error {
	switch gs.Family {
	case "gnm", "far", "tree", "cycle", "complete":
	default:
		return fmt.Errorf("sweep: unknown graph family %q", gs.Family)
	}
	if gs.N < 2 {
		return fmt.Errorf("sweep: graph %s needs n >= 2", gs)
	}
	// Every family is connected, so n-1 edges is a floor; checking it first
	// also keeps n(n-1) below overflow in maxEdges.
	if gs.N-1 > MaxFamilyEdges || gs.maxEdges() > MaxFamilyEdges {
		return fmt.Errorf("sweep: graph %s exceeds the limit of %d edges", gs, MaxFamilyEdges)
	}
	return nil
}

// maxEdges bounds from above the edge count of the graph BuildGraph builds
// for gs. Callers have checked that n-1 <= MaxFamilyEdges.
func (gs GraphSpec) maxEdges() int64 {
	n := int64(gs.N)
	switch gs.Family {
	case "gnm":
		return int64(gs.resolvedM())
	case "complete":
		return n * (n - 1) / 2
	case "cycle":
		return n
	case "tree":
		return n - 1
	}
	// far: q <= n/3 planted k-cycles (qk edges), q-1 connectors, and a
	// pendant path through the other n-qk vertices: n+q-1 edges.
	return n + n/3
}

// Spec is a declarative sweep: the cross product of Graphs × K × Eps ×
// Engines, with Trials independently seeded tester runs per combination.
type Spec struct {
	// Name labels the sweep in logs and summaries.
	Name string `json:"name,omitempty"`
	// Graphs, K, Eps and Engines span the grid. Engines defaults to
	// ["bsp"], the only engine; Validate refuses any other name, and
	// Engines stays so specs that spell the engine out keep working.
	// Combinations that are not runnable (ε ≥ 1/k for the "far"
	// family, whose construction needs ε < 1/k) are skipped, not errors.
	Graphs  []GraphSpec `json:"graphs"`
	K       []int       `json:"k"`
	Eps     []float64   `json:"eps"`
	Engines []string    `json:"engines,omitempty"`
	// Trials is the number of independently seeded runs per job.
	Trials int `json:"trials"`
	// Reps, when positive, overrides the ⌈(e²/ε)ln3⌉ repetition count of
	// every run (expert use: per-repetition measurements).
	Reps int `json:"reps,omitempty"`
	// Seed makes the whole sweep deterministic: graph construction and
	// every trial's coin streams derive from it.
	Seed uint64 `json:"seed,omitempty"`
	// BandwidthBits, when positive, enforces the hard per-message budget
	// on a run on a private store (RunCtx with a nil store). A given store
	// compiles its cores with its own budget, so RunCtx refuses a spec that
	// sets this together with a store.
	BandwidthBits int `json:"bandwidth_bits,omitempty"`
	// Workers is the scheduler's worker count (0 means GOMAXPROCS). Each
	// worker owns its Networks; the per-network BSP pool is sized so that
	// workers × pool ≈ GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// Job is one grid point.
type Job struct {
	// Index is the job's position in expansion order (Graphs × K × Eps ×
	// Engines, innermost last); results are emitted in this order.
	Index int `json:"index"`
	// SeedKey identifies the (graph, k, eps) grid point; trial seeds
	// derive from it.
	SeedKey int            `json:"seed_key"`
	Graph   GraphSpec      `json:"graph"`
	K       int            `json:"k"`
	Eps     float64        `json:"eps"`
	Engine  network.Engine `json:"engine"`
}

// Result aggregates one job's trials.
type Result struct {
	Job
	// N and M are the built graph's dimensions.
	N int `json:"n"`
	M int `json:"m"`
	// Reps and Rounds are per-trial (identical across trials of a job).
	Reps   int `json:"reps"`
	Rounds int `json:"rounds"`
	// Trials ran, Rejects among them.
	Trials  int `json:"trials"`
	Rejects int `json:"rejects"`
	// RejectRate is Rejects/Trials.
	RejectRate float64 `json:"reject_rate"`
	// AvgMessages and AvgBits are per-trial means of total traffic.
	AvgMessages float64 `json:"avg_messages"`
	AvgBits     float64 `json:"avg_bits"`
	// MaxMessageBits is the largest single message over all trials — the
	// O(log n) CONGEST quantity.
	MaxMessageBits int `json:"max_message_bits"`
	// MaxSeqs is the largest sequence count in one message (Lemma 3).
	MaxSeqs int `json:"max_seqs"`
	// Elapsed is the wall time the job's trials took on its worker.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Summary reports a completed sweep.
type Summary struct {
	Name    string
	Jobs    int
	Skipped int // grid points skipped as not runnable
	Trials  int
	Elapsed time.Duration
}

// Sink consumes results incrementally, in job order.
type Sink interface {
	Write(r *Result) error
	Flush() error
}

// Validate checks the spec and fills defaults in place.
func (s *Spec) Validate() error {
	if len(s.Graphs) == 0 {
		return fmt.Errorf("sweep: no graphs in spec")
	}
	for _, gs := range s.Graphs {
		if err := gs.Validate(); err != nil {
			return err
		}
	}
	if len(s.K) == 0 {
		return fmt.Errorf("sweep: no k values in spec")
	}
	for _, k := range s.K {
		if k < 3 {
			return fmt.Errorf("sweep: k must be at least 3, got %d", k)
		}
	}
	if len(s.Eps) == 0 {
		return fmt.Errorf("sweep: no eps values in spec")
	}
	for _, e := range s.Eps {
		if e <= 0 || e >= 1 {
			return fmt.Errorf("sweep: eps %v outside (0,1)", e)
		}
	}
	if len(s.Engines) == 0 {
		s.Engines = []string{string(network.EngineBSP)}
	}
	for _, e := range s.Engines {
		if network.Engine(e) != network.EngineBSP {
			return fmt.Errorf("sweep: unknown engine %q", e)
		}
	}
	if s.Trials <= 0 {
		return fmt.Errorf("sweep: trials must be positive, got %d", s.Trials)
	}
	if s.Reps < 0 {
		return fmt.Errorf("sweep: negative reps %d", s.Reps)
	}
	return nil
}

// Warnings reports advisory problems with a valid spec — grid points that
// will run but whose cost is known to be pathological. Today that is one
// rule: k above combin.MaxCalibratedK puts the representative selection's
// exponential hitting-set worst case in play (k=11 on dense graphs takes
// minutes per trial; see combin.Representatives). Callers print these,
// they never block a run.
func (s *Spec) Warnings() []string {
	var ws []string
	for _, k := range s.K {
		if k > combin.MaxCalibratedK {
			ws = append(ws, fmt.Sprintf(
				"sweep: k=%d exceeds the calibrated range (k <= %d): representative selection is exponential in q=k-t in the worst case and dense graphs can take minutes per trial (see internal/combin, BenchmarkRepresentatives)",
				k, combin.MaxCalibratedK))
		}
	}
	return ws
}

// Jobs expands the grid into runnable jobs, in deterministic order, and
// reports how many grid points were skipped as not runnable.
func (s *Spec) Jobs() (jobs []Job, skipped int) {
	idx, combo := 0, 0
	for _, gs := range s.Graphs {
		for _, k := range s.K {
			for _, eps := range s.Eps {
				combo++
				// A non-runnable point counts as ONE skipped grid point
				// however many engine entries the spec crosses it with.
				if !runnable(gs, k, eps) {
					skipped++
					continue
				}
				for _, eng := range s.Engines {
					jobs = append(jobs, Job{
						Index: idx, SeedKey: combo, Graph: gs, K: k, Eps: eps,
						Engine: network.Engine(eng),
					})
					idx++
				}
			}
		}
	}
	return jobs, skipped
}

// runnable filters grid points whose graph cannot be constructed: the
// ε-far family's feasibility rule lives next to its generator
// (graph.FarFromCkFreeFeasible, replaying the generator's own packing
// search — a closed-form approximation here disagreed at exact boundaries).
// BuildGraph's panic-to-error conversion remains the backstop.
func runnable(gs GraphSpec, k int, eps float64) bool {
	if gs.Family != "far" {
		return true
	}
	return graph.FarFromCkFreeFeasible(gs.N, k, eps)
}

// BuildGraph constructs the graph a GraphSpec names, deterministically from
// seed (the same derivation the sweep scheduler uses, so a serving layer
// that builds the same spec with the same seed caches the identical graph).
// k and eps matter only to the "far" family and are ignored otherwise.
// Generator panics (infeasible parameters) are converted to errors so a bad
// spec fails the caller instead of crashing the process.
func BuildGraph(gs GraphSpec, k int, eps float64, seed uint64) (g *graph.Graph, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sweep: building %s: %v", gs, p)
		}
	}()
	rng := xrand.New(xrand.Mix64(seed ^ 0x67726170685f6765)) // "graph_ge" salt: decouple from trial seeds
	switch gs.Family {
	case "gnm":
		return graph.ConnectedGNM(gs.N, gs.resolvedM(), rng), nil
	case "far":
		g, _ := graph.FarFromCkFree(gs.N, k, eps, rng)
		return g, nil
	case "tree":
		return graph.RandomTree(gs.N, rng), nil
	case "cycle":
		return graph.Cycle(gs.N), nil
	case "complete":
		return graph.Complete(gs.N), nil
	}
	return nil, fmt.Errorf("sweep: unknown graph family %q", gs.Family)
}

// trialSeed derives the coin-stream seed of one trial. It depends only on
// the spec seed, the job index, and the trial index, so results are
// independent of worker scheduling.
func trialSeed(base uint64, job, trial int) uint64 {
	return xrand.Mix64(xrand.Mix64(base+0x9e3779b97f4a7c15*uint64(job+1)) + uint64(trial))
}

// Run executes the sweep on a private store and streams per-job results to
// the sinks in job order. It returns the first error encountered (spec
// validation, graph construction, simulation, or sink I/O); on error,
// results already emitted remain written.
func Run(spec *Spec, sinks ...Sink) (*Summary, error) {
	return RunCtx(context.Background(), spec, nil, sinks...)
}

// RunCtx is Run with a cancellation boundary and a choice of store.
// Cancelling ctx aborts the sweep mid-trial — every trial runs under ctx via
// RunProgramCtx, so in-flight CONGEST runs stop within one round, not at
// trial boundaries — and RunCtx returns the context's error.
//
// store supplies the compiled cores and warm instances; each job checks one
// instance out under its graph's FamilyKey and releases it when its trials
// are done. A nil store means a private corestore.Store that compiles each
// distinct graph once with the spec's per-message budget, pools instances
// per graph, and is closed when RunCtx returns. A given store's cores carry
// the store's own budget, so a spec with a non-zero BandwidthBits is
// refused with one, before anything compiles.
func RunCtx(ctx context.Context, spec *Spec, store *corestore.Store, sinks ...Sink) (*Summary, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if store != nil && spec.BandwidthBits != 0 {
		return nil, fmt.Errorf("sweep: bandwidth_bits %d needs a private store; a given store compiles with its own budget",
			spec.BandwidthBits)
	}
	jobs, skipped := spec.Jobs()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sweep: grid is empty after skipping %d non-runnable points", skipped)
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Split the cores between scheduler workers and each instance's engine
	// pool, so total parallelism tracks the hardware. Width is part of the
	// store's pool key, so checkouts never take a warm instance of another
	// width.
	width := max(1, runtime.GOMAXPROCS(0)/workers)
	if store == nil {
		// The scheduler holds at most `workers` checkouts at once, so an
		// unbounded private store never waits, reclaims or evicts.
		store = corestore.New(corestore.Options{
			MaxGraphs:        -1,
			MaxCacheBytes:    -1,
			MaxInstances:     math.MaxInt,
			MaxInstanceBytes: -1,
			BandwidthBits:    spec.BandwidthBits,
		})
		defer store.Close()
	}

	// firstErr is guarded by failMu, not a sync.Once: the context watcher
	// below writes it from its own goroutine, and when cancellation races
	// sweep COMPLETION no worker is left to forward a happens-before edge
	// to the final read.
	var (
		failMu   sync.Mutex
		firstErr error
		cancel   = make(chan struct{})
	)
	fail := func(err error) {
		failMu.Lock()
		defer failMu.Unlock()
		if firstErr == nil {
			firstErr = err
			close(cancel)
		}
	}
	// Context cancellation rides the same first-error path the workers use,
	// so the feeder and every worker unwind promptly; in-flight trials are
	// cut off by RunProgramCtx itself.
	stopWatch := context.AfterFunc(ctx, func() { fail(ctx.Err()) })
	defer stopWatch()

	jobCh := make(chan Job)
	resCh := make(chan Result, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker(ctx, spec, store, width, jobCh, resCh, cancel, fail)
		}()
	}
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-cancel:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Reorder buffer: emit results to the sinks in job-index order as soon
	// as every earlier job has completed.
	pending := map[int]Result{}
	next := 0
	trials := 0
	for r := range resCh {
		pending[r.Index] = r
		for {
			rr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			trials += rr.Trials
			for _, s := range sinks {
				if err := s.Write(&rr); err != nil {
					fail(fmt.Errorf("sweep: sink: %w", err))
					break
				}
			}
		}
	}
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			fail(fmt.Errorf("sweep: sink flush: %w", err))
		}
	}
	failMu.Lock()
	err := firstErr
	failMu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Summary{
		Name: spec.Name, Jobs: len(jobs), Skipped: skipped,
		Trials: trials, Elapsed: time.Since(start),
	}, nil
}

// worker drains jobs, checking an exclusive warm instance out of the store
// per job and releasing it when the job's trials are done, so the warmth
// flows back into the store's pool. Every trial runs under ctx, so
// cancellation cuts work off mid-run. A job's trials run exactly once: a
// trial is a pure function of its seed, so a failed one would fail again,
// and the first error fails the sweep.
func worker(ctx context.Context, spec *Spec, store *corestore.Store, width int,
	jobCh <-chan Job, resCh chan<- Result, cancel <-chan struct{}, fail func(error)) {

	for job := range jobCh {
		select {
		case <-cancel:
			return
		default:
		}
		key := FamilyKey(job.Graph, job.K, job.Eps, spec.Seed)
		build := func() (*graph.Graph, error) {
			return BuildGraph(job.Graph, job.K, job.Eps, spec.Seed)
		}
		h, _, err := store.Checkout(ctx, key, build, network.EngineBSP, width)
		if err != nil {
			fail(fmt.Errorf("sweep: job %d (%s k=%d eps=%g %s): %w",
				job.Index, job.Graph, job.K, job.Eps, job.Engine, err))
			return
		}
		r, err := runJob(ctx, h.Inst, spec, job)
		store.Release(h)
		if err != nil {
			fail(err)
			return
		}
		select {
		case resCh <- r:
		case <-cancel:
			return
		}
	}
}

// runJob executes one job's trials on a checked-out instance and aggregates
// them into its Result row.
func runJob(ctx context.Context, inst *network.Instance, spec *Spec, job Job) (Result, error) {
	g := inst.Graph()
	// One Program value for all trials: with network.ReusableNode support
	// the instance re-binds the cached per-node state instead of rebuilding
	// it, making steady-state trials allocation-free.
	prog := &core.Tester{K: job.K, Eps: job.Eps, Reps: spec.Reps}
	r := Result{Job: job, N: g.N(), M: g.M(), Trials: spec.Trials, Reps: prog.Repetitions()}
	jobStart := time.Now()
	var sumMsgs, sumBits int64
	for t := 0; t < spec.Trials; t++ {
		res, err := inst.RunProgramCtx(ctx, prog, trialSeed(spec.Seed, job.SeedKey, t))
		if err != nil {
			return r, fmt.Errorf("sweep: job %d (%s k=%d eps=%g %s) trial %d: %w",
				job.Index, job.Graph, job.K, job.Eps, job.Engine, t, err)
		}
		dec := core.Summarize(res.Outputs, res.IDs)
		if dec.Reject {
			r.Rejects++
		}
		if dec.MaxSeqs > r.MaxSeqs {
			r.MaxSeqs = dec.MaxSeqs
		}
		r.Rounds = res.Stats.Rounds
		sumMsgs += res.Stats.MessagesSent
		sumBits += res.Stats.TotalBits
		if res.Stats.MaxMessageBits > r.MaxMessageBits {
			r.MaxMessageBits = res.Stats.MaxMessageBits
		}
	}
	r.RejectRate = float64(r.Rejects) / float64(r.Trials)
	r.AvgMessages = float64(sumMsgs) / float64(r.Trials)
	r.AvgBits = float64(sumBits) / float64(r.Trials)
	r.Elapsed = time.Since(jobStart)
	return r, nil
}
