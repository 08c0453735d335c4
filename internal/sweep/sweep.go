// Package sweep is a concurrent parameter-sweep scheduler over compiled
// network cores: a declarative Spec (grids over graph family, k, ε, engine,
// trials) is expanded into jobs, fanned across a sharded worker pool, and
// the per-job aggregates are streamed incrementally, in job order, to
// CSV/JSON sinks.
//
// Trial execution runs on the CoreProvider substrate: a provider hands out
// exclusive warm network.Instances over shared immutable network.Compiled
// cores, one checkout per job. The default (standalone) provider compiles
// each distinct graph exactly once for the whole sweep and pools warm
// instances per (graph, engine); a serving layer can substitute its own
// provider so sweep trials run on the SAME cached cores and warm pools its
// query traffic uses (internal/serve does exactly that for /sweep).
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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cycledetect/internal/combin"
	"cycledetect/internal/congest"
	"cycledetect/internal/core"
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

// Spec is a declarative sweep: the cross product of Graphs × K × Eps ×
// Engines, with Trials independently seeded tester runs per combination.
type Spec struct {
	// Name labels the sweep in logs and summaries.
	Name string `json:"name,omitempty"`
	// Graphs, K, Eps and Engines span the grid. Engines defaults to
	// ["bsp"]. Combinations that are not runnable (ε ≥ 1/k for the "far"
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
	// BandwidthBits, when positive, enforces the hard per-message budget.
	BandwidthBits int `json:"bandwidth_bits,omitempty"`
	// Workers is the scheduler's worker count (0 means GOMAXPROCS). Each
	// worker owns its Networks; the per-network BSP pool is sized so that
	// workers × pool ≈ GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// MaxRetries bounds per-job retries of TRANSIENT failures — a serving
	// provider shedding load, an injected fault — before the sweep fails
	// (see IsTransient). 0 means the default of 3; negative disables
	// retries. Terminal failures (program panics, real bandwidth
	// violations, the sweep's own cancellation) are never retried.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoff is the base wait before a retry; attempt i waits
	// base·2^(i-1), capped at 32×base, plus a deterministic jitter in
	// [0, base). 0 means the default of 5ms.
	RetryBackoff time.Duration `json:"retry_backoff_ns,omitempty"`
}

func (s *Spec) maxRetries() int {
	if s.MaxRetries > 0 {
		return s.MaxRetries
	}
	if s.MaxRetries < 0 {
		return 0
	}
	return 3
}

func (s *Spec) retryBackoff() time.Duration {
	if s.RetryBackoff > 0 {
		return s.RetryBackoff
	}
	return 5 * time.Millisecond
}

// Job is one grid point.
type Job struct {
	// Index is the job's position in expansion order (Graphs × K × Eps ×
	// Engines, innermost last); results are emitted in this order.
	Index int `json:"index"`
	// SeedKey identifies the engine-independent (graph, k, eps) grid point;
	// trial seeds derive from it, so engine variants of the same point run
	// on identical coin streams and must produce identical decisions.
	SeedKey int            `json:"seed_key"`
	Graph   GraphSpec      `json:"graph"`
	K       int            `json:"k"`
	Eps     float64        `json:"eps"`
	Engine  congest.Engine `json:"engine"`
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
	// Retries counts transient failures that were retried (and eventually
	// absorbed) instead of failing the sweep — see Spec.MaxRetries.
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
		switch gs.Family {
		case "gnm", "far", "tree", "cycle", "complete":
		default:
			return fmt.Errorf("sweep: unknown graph family %q", gs.Family)
		}
		if gs.N < 2 {
			return fmt.Errorf("sweep: graph %s needs n >= 2", gs)
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
		s.Engines = []string{string(congest.EngineBSP)}
	}
	for _, e := range s.Engines {
		switch congest.Engine(e) {
		case congest.EngineBSP, congest.EngineChannels:
		default:
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
				// Runnability is engine-independent, so a non-runnable
				// point counts as ONE skipped grid point however many
				// engines the spec crosses it with.
				if !runnable(gs, k, eps) {
					skipped++
					continue
				}
				for _, eng := range s.Engines {
					jobs = append(jobs, Job{
						Index: idx, SeedKey: combo, Graph: gs, K: k, Eps: eps,
						Engine: congest.Engine(eng),
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
// buildGraph's panic-to-error conversion remains the backstop.
func runnable(gs GraphSpec, k int, eps float64) bool {
	if gs.Family != "far" {
		return true
	}
	return graph.FarFromCkFreeFeasible(gs.N, k, eps)
}

// graphKey identifies a built graph. Only the "far" family depends on the
// job's (k, ε); every other family is shared across the whole grid.
type graphKey struct {
	gs  GraphSpec
	k   int
	eps float64
}

// key identifies the point's built graph. Only the "far" family depends on
// (k, eps); every other family is shared across the whole grid — which is
// also what lets a serving provider share one cached core between a sweep's
// whole (k, ε) grid and its query traffic.
func (pt TrialPoint) key() graphKey {
	if pt.Graph.Family == "far" {
		return graphKey{gs: pt.Graph, k: pt.K, eps: pt.Eps}
	}
	return graphKey{gs: pt.Graph}
}

// buildGraph constructs the graph for a key, deterministically from the
// sweep seed.
func buildGraph(key graphKey, seed uint64) (*graph.Graph, error) {
	return BuildGraph(key.gs, key.k, key.eps, seed)
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
// (as built from Seed, the sweep seed), the engine, and the per-message
// budget the core must be compiled with. It is the vocabulary between the
// scheduler and a CoreProvider.
type TrialPoint struct {
	Graph GraphSpec
	// K and Eps matter to graph identity only for the "far" family, whose
	// construction depends on them (mirroring the scheduler's graph keying).
	K   int
	Eps float64
	// Seed is the sweep seed the graph is deterministically built from.
	Seed uint64
	// Engine selects the execution engine of the checked-out instance.
	Engine network.Engine
	// BandwidthBits is the per-message budget the core enforces (0 = none).
	BandwidthBits int
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
	// Retries counts transient-failure retries (mirrors Summary.Retries).
	Retries atomic.Int64
	// ActiveWorkers is the number of scheduler workers currently running
	// a job's trials, across all sweeps sharing this Progress.
	ActiveWorkers atomic.Int64
}

// IsTransient reports whether err is worth retrying: something in its
// chain declares Transient() true. The serve layer's load sheds
// (*serve.ErrOverloaded) and the network layer's injected faults
// (*network.ErrInjected) do; real program panics, genuine bandwidth
// violations, and the sweep's own cancellation do not. The check is
// structural — any error advertising Transient() participates — so sweep
// does not import the layers above it.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// retryDelay is attempt i's backoff: base·2^(i-1) capped at 32×base,
// plus a deterministic jitter in [0, base) derived from the sweep seed
// and job index, so concurrent retries decorrelate without making runs
// irreproducible.
func retryDelay(spec *Spec, job Job, attempt int) time.Duration {
	base := spec.retryBackoff()
	d := base << min(attempt-1, 5)
	if d > 32*base {
		d = 32 * base
	}
	j := xrand.Mix64(spec.Seed ^ uint64(job.Index)<<20 ^ uint64(attempt))
	return d + time.Duration(j%uint64(base))
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
// never Close it. Implementations decide how cores are cached and shared:
// the scheduler's default provider compiles each distinct graph once per
// sweep, while internal/serve serves sweeps straight from the LRU of
// compiled cores (and warm instance pools) its query traffic already keeps
// hot.
type CoreProvider interface {
	Acquire(ctx context.Context, pt TrialPoint) (*network.Instance, func(), error)
}

// localProvider is the standalone substrate: one Compiled per distinct
// graph for the whole sweep (built under a per-key Once, so distinct graphs
// compile concurrently) and a pool of warm instances per (graph, engine).
type localProvider struct {
	seed    uint64
	workers int // BSP width per instance

	mu    sync.Mutex
	cores map[graphKey]*coreEntry
	idle  map[localInstKey][]*network.Instance
}

type coreEntry struct {
	once sync.Once
	c    *network.Compiled
	err  error
}

type localInstKey struct {
	gk     graphKey
	engine network.Engine
}

func newLocalProvider(spec *Spec, nwWorkers int) *localProvider {
	return &localProvider{
		seed:    spec.Seed,
		workers: nwWorkers,
		cores:   map[graphKey]*coreEntry{},
		idle:    map[localInstKey][]*network.Instance{},
	}
}

// Acquire implements CoreProvider. It never blocks: the scheduler runs at
// most `workers` jobs at once and each holds one instance, so the pool's
// population is bounded by the worker count.
func (p *localProvider) Acquire(ctx context.Context, pt TrialPoint) (*network.Instance, func(), error) {
	gk := pt.key()
	ik := localInstKey{gk: gk, engine: pt.Engine}

	p.mu.Lock()
	if pool := p.idle[ik]; len(pool) > 0 {
		inst := pool[len(pool)-1]
		p.idle[ik] = pool[:len(pool)-1]
		p.mu.Unlock()
		return inst, func() { p.release(ik, inst) }, nil
	}
	e, ok := p.cores[gk]
	if !ok {
		e = &coreEntry{}
		p.cores[gk] = e
	}
	p.mu.Unlock()

	e.once.Do(func() {
		g, err := buildGraph(gk, p.seed)
		if err != nil {
			e.err = err
			return
		}
		// The point's budget, not a provider-wide copy: the TrialPoint
		// carries the full compile contract, so any CoreProvider that
		// honors it the way this one does is interchangeable.
		e.c, e.err = network.Compile(g, network.CompileOptions{BandwidthBits: pt.BandwidthBits})
	})
	if e.err != nil {
		return nil, nil, e.err
	}
	width := pt.Workers
	if width <= 0 {
		width = p.workers
	}
	inst, err := e.c.NewInstance(network.InstanceOptions{Engine: pt.Engine, Workers: width})
	if err != nil {
		return nil, nil, err
	}
	return inst, func() { p.release(ik, inst) }, nil
}

func (p *localProvider) release(ik localInstKey, inst *network.Instance) {
	p.mu.Lock()
	p.idle[ik] = append(p.idle[ik], inst)
	p.mu.Unlock()
}

// close releases every pooled engine. Callers (RunCtx) only invoke it after
// all workers have released their instances.
func (p *localProvider) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pool := range p.idle {
		for _, inst := range pool {
			inst.Close()
		}
	}
	p.idle = map[localInstKey][]*network.Instance{}
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
// selects the standalone per-sweep provider (compile each distinct graph
// once, pool instances per graph and engine).
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
	// every TrialPoint, so EVERY provider — not just the standalone one —
	// sees the budgeted width and can honor it (the serve provider clamps
	// it against its own budget; see serve.coreProvider).
	instWorkers := runtime.GOMAXPROCS(0) / workers
	if instWorkers < 1 {
		instWorkers = 1
	}
	if provider == nil {
		local := newLocalProvider(spec, instWorkers)
		defer local.close()
		provider = local
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
// cuts work off mid-run.
//
// Transient failures — a shed from an overloaded serving provider, an
// injected fault — are retried up to spec.MaxRetries times with jittered
// exponential backoff before failing the sweep, so a brief load spike on
// the shared substrate does not kill a long sweep. Terminal failures
// (and exhausted retries) fail the sweep immediately, as before.
func worker(ctx context.Context, spec *Spec, provider CoreProvider, instWorkers int,
	prog *Progress, jobCh <-chan Job, resCh chan<- Result, cancel <-chan struct{},
	fail func(error), retries *atomic.Int64) {

	maxRetries := spec.maxRetries()
	for job := range jobCh {
		select {
		case <-cancel:
			return
		default:
		}
		if prog != nil {
			prog.ActiveWorkers.Add(1)
		}
		var r Result
		var jobErr error
		for attempt := 0; ; attempt++ {
			inst, release, err := provider.Acquire(ctx, TrialPoint{
				Graph: job.Graph, K: job.K, Eps: job.Eps,
				Seed: spec.Seed, Engine: job.Engine, BandwidthBits: spec.BandwidthBits,
				Workers: instWorkers,
			})
			if err != nil {
				err = fmt.Errorf("sweep: job %d (%s k=%d eps=%g %s): %w",
					job.Index, job.Graph, job.K, job.Eps, job.Engine, err)
			} else {
				r, err = runJob(ctx, inst, spec, prog, job)
				release()
			}
			if err == nil {
				break
			}
			if attempt >= maxRetries || !IsTransient(err) {
				jobErr = err
				break
			}
			retries.Add(1)
			if prog != nil {
				prog.Retries.Add(1)
			}
			if !backoffWait(ctx, cancel, retryDelay(spec, job, attempt+1)) {
				jobErr = errUnwinding // the sweep's first error is already set
				break
			}
		}
		if prog != nil {
			prog.ActiveWorkers.Add(-1)
		}
		if jobErr != nil {
			if jobErr != errUnwinding {
				fail(jobErr)
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
	// One Program value for all trials: with congest.ReusableNode support
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
