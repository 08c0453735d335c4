// Package sweep is a concurrent parameter-sweep scheduler over compiled
// network cores: a declarative Spec (grids over graph family, k, ε,
// trials) is expanded into jobs, fanned across a sharded worker pool, and
// the per-job aggregates are streamed incrementally, in job order, to
// CSV/JSON sinks.
//
// Trial execution runs on the CoreProvider substrate: a provider hands out
// exclusive warm network.Instances over shared immutable network.Compiled
// cores, one checkout per job. Compiled cores live in a corestore.Store,
// the one cache of them, and StoreProvider adapts any store to the
// scheduler. A standalone sweep runs on a private store that compiles each
// distinct graph once for the whole sweep and pools warm instances per
// graph; a serving layer passes a provider over its own store so sweep
// trials run on the SAME cached cores and warm pools its query traffic uses
// (internal/serve does exactly that for /sweep).
//
// This is the workload the paper makes cheap: each trial costs O(1/ε)
// CONGEST rounds (Theorem 1), so a sweep's cost is dominated by per-run
// setup unless networks are reused. Streaming emission follows the
// enumeration-complexity view (incremental time and delay, not batch
// tables): a consumer sees job i's aggregate as soon as jobs 0..i are done,
// while later jobs are still running. The same view motivates early
// termination: every trial runs under the sweep's context via
// RunProgramCtx, so cancelling it (a killed /sweep stream, a SIGINT) stops
// work within one CONGEST round — mid-trial, not at trial or job
// boundaries.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
	// on a standalone run (RunCtx with a nil provider). A provider's cores
	// are compiled with the budget of the store behind it.
	BandwidthBits int `json:"bandwidth_bits,omitempty"`
	// Workers is the scheduler's worker count (0 means GOMAXPROCS). Each
	// worker owns its Networks; the per-network BSP pool is sized so that
	// workers × pool ≈ GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// A transient checkout failure — a serving provider shedding load (see
// IsTransient) — is retried up to maxRetries times per job before the
// sweep fails. Retry i waits retryBackoff·2^(i-1) plus a deterministic
// jitter in [0, retryBackoff). Trial failures (program panics, bandwidth
// violations, the sweep's own cancellation) are never retried.
const (
	maxRetries   = 3
	retryBackoff = 5 * time.Millisecond
)

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
	// Retries counts transient checkout failures that were retried (and
	// eventually absorbed) instead of failing the sweep — see maxRetries.
	Retries int64
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

// TrialPoint names the execution substrate one job's trials need: the graph
// (as built from Seed, the sweep seed) and the engine width. It is the
// vocabulary between the scheduler and a CoreProvider; the per-message
// budget is the provider's, fixed when its cores are compiled.
type TrialPoint struct {
	Graph GraphSpec
	// K and Eps matter to graph identity only for the "far" family, whose
	// construction depends on them (see FamilyKey).
	K   int
	Eps float64
	// Seed is the sweep seed the graph is deterministically built from.
	Seed uint64
	// Workers is the engine width the scheduler budgeted for this job's
	// instance: the scheduler sizes it so that scheduler workers × engine
	// width ≈ GOMAXPROCS. Providers should honor it (clamped to their own
	// resource policy) rather than substitute a fixed width; 0 leaves the
	// width to the provider. Instance.Workers() reports what a checkout
	// actually got.
	Workers int
}

// Progress is a live, additively-shared view of one or more running
// sweeps: every field is atomic, updated by the scheduler as work
// happens, so an observer (a /metrics scrape, a progress bar) can read a
// mid-flight sweep without synchronizing with it. One Progress may be
// passed to many concurrent RunCtxProgress calls — a server aggregates
// all its sweeps into one — which is why the fields are cumulative
// counters plus an instantaneous worker gauge, not per-sweep snapshots.
type Progress struct {
	// Jobs is the total number of grid jobs admitted across sweeps.
	Jobs atomic.Int64
	// JobsDone counts jobs whose trials all completed.
	JobsDone atomic.Int64
	// Trials counts individual completed trials — the sweep throughput
	// numerator.
	Trials atomic.Int64
	// Retries counts retried checkouts (mirrors Summary.Retries), including
	// those of sweeps that then failed.
	Retries atomic.Int64
	// ActiveWorkers is the number of scheduler workers currently running
	// a job's trials, across all sweeps sharing this Progress.
	ActiveWorkers atomic.Int64
}

// IsTransient reports whether err is worth retrying: something in its
// chain declares Transient() true. A saturated store
// (*corestore.ErrSaturated) and the serve layer's load sheds
// (*serve.ErrOverloaded) do; engine errors (program panics, bandwidth
// violations, cancellation) never do. The check is structural — any error
// advertising Transient() participates — so sweep does not import the
// layers above it.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// retryDelay is attempt i's backoff: retryBackoff·2^(i-1) plus a
// deterministic jitter in [0, retryBackoff) derived from the sweep seed and
// job index, so concurrent retries decorrelate without making runs
// irreproducible.
func retryDelay(seed uint64, job Job, attempt int) time.Duration {
	j := xrand.Mix64(seed ^ uint64(job.Index)<<20 ^ uint64(attempt))
	return retryBackoff<<(attempt-1) + time.Duration(j%uint64(retryBackoff))
}

// backoffWait sleeps d, cut short by the sweep's context or first-error
// cancellation. It reports whether the full wait elapsed (retry) rather
// than being interrupted (unwind).
func backoffWait(ctx context.Context, cancel <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-cancel:
		return false
	}
}

// CoreProvider supplies the execution substrate for sweep trials: an
// exclusive warm network.Instance attached to a compiled core for the given
// point. Acquire blocks (bounded by ctx) when the provider's instances are
// exhausted; the returned release func MUST be called exactly once when the
// job's trials are done and returns the instance to the provider — callers
// never Close it. StoreProvider is the implementation over a
// corestore.Store; a serving layer wraps it to translate the store's errors
// into its own vocabulary, and tests wrap it to inject failures.
type CoreProvider interface {
	Acquire(ctx context.Context, pt TrialPoint) (*network.Instance, func(), error)
}

// StoreProvider adapts a corestore.Store to sweep trials: a point is cached
// under its FamilyKey, so trials share cores with every other checkout of
// the same graph from the same store. The scheduler's budgeted engine width
// (pt.Workers) is honored, clamped to the hardware; width is part of the
// store's pool key, so sweep checkouts never take a warm instance of
// another width.
func StoreProvider(s *corestore.Store) CoreProvider { return storeProvider{s} }

type storeProvider struct{ s *corestore.Store }

func (p storeProvider) Acquire(ctx context.Context, pt TrialPoint) (*network.Instance, func(), error) {
	key := FamilyKey(pt.Graph, pt.K, pt.Eps, pt.Seed)
	build := func() (*graph.Graph, error) {
		return BuildGraph(pt.Graph, pt.K, pt.Eps, pt.Seed)
	}
	width := min(pt.Workers, runtime.GOMAXPROCS(0))
	h, _, err := p.s.Checkout(ctx, key, build, network.EngineBSP, width)
	if err != nil {
		return nil, nil, err
	}
	return h.Inst, func() { p.s.Release(h) }, nil
}

// Run executes the sweep on the standalone substrate and streams per-job
// results to the sinks in job order. It returns the first error encountered
// (spec validation, graph construction, simulation, or sink I/O); on error,
// results already emitted remain written.
func Run(spec *Spec, sinks ...Sink) (*Summary, error) {
	return RunCtx(context.Background(), spec, nil, sinks...)
}

// RunCtx is Run with a cancellation boundary and a pluggable execution
// substrate. Cancelling ctx aborts the sweep mid-trial — every trial runs
// under ctx via RunProgramCtx, so in-flight CONGEST runs stop within one
// round, not at trial boundaries — and RunCtx returns the context's error.
// provider supplies compiled cores and warm instances for the trials; nil
// runs them on a private corestore.Store that compiles each distinct graph
// once with the spec's per-message budget, pools instances per graph, and
// is closed when RunCtx returns.
func RunCtx(ctx context.Context, spec *Spec, provider CoreProvider, sinks ...Sink) (*Summary, error) {
	return RunCtxProgress(ctx, spec, provider, nil, sinks...)
}

// RunCtxProgress is RunCtx with live observability: when prog is non-nil
// the scheduler publishes job/trial/retry counts and the busy-worker
// gauge into it as the sweep runs, so a long sweep is inspectable
// mid-flight (internal/serve exports one server-wide Progress through
// /metrics). prog may be shared by concurrent sweeps — its counters are
// cumulative across them.
func RunCtxProgress(ctx context.Context, spec *Spec, provider CoreProvider, prog *Progress, sinks ...Sink) (*Summary, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
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
	// pool, so total parallelism tracks the hardware. The width travels on
	// every TrialPoint, so every provider sees the budgeted width and can
	// honor it (StoreProvider clamps it to the hardware).
	instWorkers := runtime.GOMAXPROCS(0) / workers
	if instWorkers < 1 {
		instWorkers = 1
	}
	if provider == nil {
		// The scheduler holds at most `workers` checkouts at once, so an
		// unbounded private store never waits, reclaims or evicts.
		store := corestore.New(corestore.Options{
			MaxGraphs:        -1,
			MaxCacheBytes:    -1,
			MaxInstances:     math.MaxInt,
			MaxInstanceBytes: -1,
			BandwidthBits:    spec.BandwidthBits,
		})
		defer store.Close()
		provider = StoreProvider(store)
	}
	if prog != nil {
		prog.Jobs.Add(int64(len(jobs)))
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
	var retries atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker(ctx, spec, provider, instWorkers, prog, jobCh, resCh, cancel, fail, &retries)
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
		Trials: trials, Retries: retries.Load(), Elapsed: time.Since(start),
	}, nil
}

// worker drains jobs, checking an exclusive warm instance out of the
// provider per job (released when the job's trials are done, so the warmth
// flows back into the shared pool — and, with a serving provider, to query
// traffic on the same graph). Every trial runs under ctx, so cancellation
// cuts work off mid-run. A job's trials run exactly once: a trial is a pure
// function of its seed, so a failed one would fail again, and the first
// trial error fails the sweep.
func worker(ctx context.Context, spec *Spec, provider CoreProvider, instWorkers int,
	prog *Progress, jobCh <-chan Job, resCh chan<- Result, cancel <-chan struct{},
	fail func(error), retries *atomic.Int64) {

	for job := range jobCh {
		select {
		case <-cancel:
			return
		default:
		}
		if prog != nil {
			prog.ActiveWorkers.Add(1)
		}
		// A transient checkout failure — a shed from an overloaded serving
		// provider — is retried with jittered exponential backoff, so a
		// brief load spike on the shared substrate does not kill a long
		// sweep. Terminal failures and exhausted retries fail the sweep.
		pt := TrialPoint{Graph: job.Graph, K: job.K, Eps: job.Eps, Seed: spec.Seed, Workers: instWorkers}
		inst, release, err := provider.Acquire(ctx, pt)
		for attempt := 1; err != nil && attempt <= maxRetries && IsTransient(err); attempt++ {
			retries.Add(1)
			if prog != nil {
				prog.Retries.Add(1)
			}
			if !backoffWait(ctx, cancel, retryDelay(spec.Seed, job, attempt)) {
				err = errUnwinding // the sweep's first error is already set
				break
			}
			inst, release, err = provider.Acquire(ctx, pt)
		}
		var r Result
		if err == nil {
			r, err = runJob(ctx, inst, spec, prog, job)
			release()
		} else if err != errUnwinding {
			err = fmt.Errorf("sweep: job %d (%s k=%d eps=%g %s): %w",
				job.Index, job.Graph, job.K, job.Eps, job.Engine, err)
		}
		if prog != nil {
			prog.ActiveWorkers.Add(-1)
		}
		if err != nil {
			if err != errUnwinding {
				fail(err)
			}
			return
		}
		if prog != nil {
			prog.JobsDone.Add(1)
		}
		select {
		case resCh <- r:
		case <-cancel:
			return
		}
	}
}

// errUnwinding is worker-internal: a backoff wait cut short because the
// sweep is already failing/cancelled; the first error is recorded
// elsewhere, so the worker just leaves.
var errUnwinding = errors.New("sweep: unwinding")

// runJob executes one job's trials on a checked-out instance and aggregates
// them into its Result row.
func runJob(ctx context.Context, inst *network.Instance, spec *Spec, pr *Progress, job Job) (Result, error) {
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
		if pr != nil {
			pr.Trials.Add(1)
		}
	}
	r.RejectRate = float64(r.Rejects) / float64(r.Trials)
	r.AvgMessages = float64(sumMsgs) / float64(r.Trials)
	r.AvgBits = float64(sumBits) / float64(r.Trials)
	r.Elapsed = time.Since(jobStart)
	return r, nil
}
