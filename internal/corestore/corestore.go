// Package corestore is the compiled-core store behind the serving tier: an
// LRU of immutable network.Compiled cores (byte-weighted by
// Compiled.MemSize), per-(graph, engine, width) pools of warm
// network.Instances under one store-wide two-dimensional instance budget
// (count and pinned bytes) with coldest-graph idle reclaim — and, when
// given a directory, durable snapshots of the working set with warm
// restart.
//
// The store is the substrate both serve traffic classes already shared
// (PRs 4–7 grew it inside serve.Server; this package is its extraction):
// /query checks instances out per run through Checkout, and sweep trials
// go through the same cache via the sweep.CoreProvider implementation, so
// a sweep over a graph the query traffic compiled performs zero compiles
// and vice versa. The serving layer keeps what is genuinely serving —
// admission gates, HTTP framing, request tracing — and delegates every
// core and instance decision here, which is also what a future
// sharded/replicated tier will talk to.
//
// Durability (see persist.go): Persist writes each cached core as a
// CRC-checksummed segment file under a manifest keyed by the graph's
// canonical fingerprint, atomically (temp + rename) and rate-limited in
// the background; WarmStart loads the previous working set back in LRU
// order within the byte budget, falling back to recompile-on-demand for
// anything corrupt, truncated, or version-mismatched. Because a snapshot
// round-trips through network.Compile, a query served from a warm-loaded
// core is byte-identical to one served from a freshly compiled core.
package corestore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
)

// Options configures a Store. The zero value works with the defaults noted
// on each field; the negative-disables convention matches serve.Options.
type Options struct {
	// MaxGraphs caps the number of cached compiled cores (default 64;
	// negative disables the entry bound). Byte-weighted eviction
	// (MaxCacheBytes) is the primary bound; this guards against unbounded
	// entry counts of tiny graphs.
	MaxGraphs int
	// MaxCacheBytes bounds the summed compiled size of the cache (default
	// 256 MiB; negative disables). The most recently used entry is never
	// evicted, so one over-budget giant graph still serves.
	MaxCacheBytes int64
	// MaxInstances is the store-wide budget of live instances — idle in
	// pools plus checked out (default GOMAXPROCS).
	MaxInstances int
	// MaxInstanceBytes bounds live instances by the bytes they pin
	// (Compiled.MemSize each), alongside the count bound (default 256 MiB;
	// negative disables). The first instance always spawns.
	MaxInstanceBytes int64
	// MaxQueueDepth bounds the instance-budget wait queue (default 64;
	// negative disables). A checkout arriving at a full queue fails
	// immediately with *ErrSaturated instead of parking.
	MaxQueueDepth int
	// DefaultWorkers is the engine width used when a checkout does not name
	// one (default 1).
	DefaultWorkers int
	// BandwidthBits, if positive, compiles a hard per-message budget into
	// every cached core — and gates WarmStart: snapshots written under a
	// different budget are recompiled, not loaded.
	BandwidthBits int
	// Faults, when non-nil, is passed to every spawned instance (the chaos
	// mode of the soak tests).
	Faults *network.FaultPlan
	// Collector, when non-nil, receives per-run metrics from every spawned
	// instance.
	Collector network.RunCollector
	// Dir, when non-empty, enables durability: Close (and the background
	// loop, see PersistInterval) snapshots the working set there, and
	// WarmStart can reload it.
	Dir string
	// PersistInterval rate-limits the background persist loop (default 30s
	// when Dir is set; negative disables the loop — Persist can still be
	// called directly, and Close still snapshots).
	PersistInterval time.Duration
	// Logf, when non-nil, receives diagnostic logging (snapshot load
	// failures, persist errors). nil discards.
	Logf func(format string, args ...any)

	// Observer hooks, all optional: the serving layer wires its queue-depth
	// accounting and latency histograms through these so the store stays
	// free of any metrics dependency. OnQueueEnter/OnQueueLeave bracket one
	// parked budget-waiter; ObserveWait sees each wait episode's duration;
	// ObserveAcquire sees each successful checkout's lookup-to-handle time.
	OnQueueEnter   func()
	OnQueueLeave   func()
	ObserveWait    func(d time.Duration)
	ObserveAcquire func(d time.Duration)
}

// defaultBytes bounds the cache and the instance bytes when unset.
const defaultBytes = 256 << 20

// defaultPersistInterval rate-limits the background persist loop.
const defaultPersistInterval = 30 * time.Second

func (o Options) maxGraphs() int {
	if o.MaxGraphs > 0 {
		return o.MaxGraphs
	}
	if o.MaxGraphs < 0 {
		return int(^uint(0) >> 1)
	}
	return 64
}

func (o Options) maxCacheBytes() int64 {
	if o.MaxCacheBytes > 0 {
		return o.MaxCacheBytes
	}
	if o.MaxCacheBytes < 0 {
		return 1 << 62
	}
	return defaultBytes
}

func (o Options) maxInstances() int {
	if o.MaxInstances > 0 {
		return o.MaxInstances
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxInstanceBytes() int64 {
	if o.MaxInstanceBytes > 0 {
		return o.MaxInstanceBytes
	}
	if o.MaxInstanceBytes < 0 {
		return 1 << 62
	}
	return defaultBytes
}

func (o Options) maxQueueDepth() int {
	if o.MaxQueueDepth > 0 {
		return o.MaxQueueDepth
	}
	if o.MaxQueueDepth < 0 {
		return int(^uint(0) >> 1)
	}
	return 64
}

func (o Options) defaultWorkers() int {
	if o.DefaultWorkers > 0 {
		return o.DefaultWorkers
	}
	return 1
}

func (o Options) persistInterval() time.Duration {
	if o.PersistInterval > 0 {
		return o.PersistInterval
	}
	if o.PersistInterval < 0 {
		return 0
	}
	return defaultPersistInterval
}

// ErrSaturated reports a checkout rejected because the instance budget is
// exhausted AND its wait queue is full. It is transient (sweep.IsTransient):
// callers back off and retry, or translate it into their own overload
// vocabulary (serve maps it to *ErrOverloaded / HTTP 429).
type ErrSaturated struct {
	// Instances is the budget that was saturated.
	Instances int
	// QueueDepth is the wait-queue bound that was full.
	QueueDepth int
}

func (e *ErrSaturated) Error() string {
	return fmt.Sprintf("corestore: instance budget (%d) saturated and its wait queue (%d) full",
		e.Instances, e.QueueDepth)
}

// Transient marks saturation as retryable.
func (e *ErrSaturated) Transient() bool { return true }

// Store is the compiled-core store. Create with New, release with Close.
// All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu            sync.Mutex
	cond          *sync.Cond // signaled on release, eviction, budget change, close
	entries       map[string]*entry
	lru           *list.List // of *entry; front = most recently used
	cacheBytes    int64      // summed MemSize of cached cores
	spawned       int        // live instances store-wide: idle + checked out
	instBytes     int64      // summed MemSize pinned by live instances
	budgetWaiters int        // checkouts parked on the instance-budget wait
	closed        bool
	gen           int64 // bumped on insert/evict; persist skips when unchanged

	// persistMu serializes persist passes (the background loop, explicit
	// Persist calls, and Close) without holding mu across file IO.
	persistMu    sync.Mutex
	persistedGen int64
	loopStop     chan struct{}
	loopDone     chan struct{}

	hits         atomic.Int64
	misses       atomic.Int64
	compiles     atomic.Int64
	evictions    atomic.Int64
	persists     atomic.Int64 // snapshot passes that wrote a manifest
	warmLoads    atomic.Int64 // cores loaded from snapshots by WarmStart
	loadFailures atomic.Int64 // snapshot segments/manifests rejected by WarmStart
	diskBytes    atomic.Int64 // bytes the current on-disk snapshot occupies
}

// entry is one cached graph: its immutable compiled core plus the warm
// instance pools attached to it, one per (engine, width).
type entry struct {
	key      string
	elem     *list.Element
	g        *graph.Graph
	compiled *network.Compiled
	fp       string // canonical graph fingerprint: the snapshot manifest key
	pools    map[poolKey]*instPool
	evicted  bool
	warm     bool      // loaded from a snapshot rather than compiled here
	hits     int64     // lookups served by this entry (guarded by Store.mu)
	created  time.Time // when the entry entered the cache
}

// poolKey names one warm-instance pool of an entry: engine AND engine
// width. Width is part of the identity because an instance's BSP pool is
// sized at spawn — handing a query-width instance to a sweep job budgeted
// wider (or vice versa) would silently run at the wrong parallelism.
type poolKey struct {
	engine  network.Engine
	workers int
}

// instPool holds the idle warm handles of one (graph, engine, width). All
// bookkeeping is guarded by Store.mu; blocked acquirers wait on Store.cond,
// because a store-wide budget means a release anywhere can unblock a waiter
// everywhere.
type instPool struct {
	idle []*Handle
}

// Handle is one checked-out warm instance. The caller has exclusive use of
// Inst until Release; Scratch is caller-owned state that survives with the
// handle across checkouts of the same pool (the serving layer parks its
// per-worker program cache there), starting nil on a fresh spawn.
type Handle struct {
	Inst    *network.Instance
	Scratch any

	e  *entry
	pk poolKey
}

// New returns a Store. When opts.Dir is set and the persist interval is not
// negative, a background goroutine snapshots the working set every
// interval; Close always takes a final snapshot.
func New(opts Options) *Store {
	s := &Store{
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	s.cond = sync.NewCond(&s.mu)
	if opts.Dir != "" {
		if iv := opts.persistInterval(); iv > 0 {
			s.loopStop = make(chan struct{})
			s.loopDone = make(chan struct{})
			go s.persistLoop(iv)
		}
	}
	return s
}

// logf routes diagnostic logging through Options.Logf when set; the store
// never logs through the global logger on its own.
func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Close stops the persist loop, takes a final snapshot when durability is
// configured, then evicts every cached graph and closes all idle instances.
// Checked-out handles stay valid; their instances are closed on Release.
// Further checkouts fail.
func (s *Store) Close() {
	if s.loopStop != nil {
		close(s.loopStop)
		<-s.loopDone
	}
	if s.opts.Dir != "" {
		if err := s.Persist(); err != nil {
			s.logf("corestore: final persist: %v", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, e := range s.entries {
		s.evictLocked(e)
	}
	s.entries = map[string]*entry{}
	s.lru.Init()
	s.cond.Broadcast()
}

// evictLocked marks e evicted, closes its idle instances (returning their
// budget), and wakes blocked acquirers so checkouts waiting on the dead
// entry retry against the live cache. Callers hold s.mu.
func (s *Store) evictLocked(e *entry) {
	e.evicted = true
	s.cacheBytes -= e.compiled.MemSize()
	s.gen++
	for _, p := range e.pools {
		for _, h := range p.idle {
			s.spawned--
			s.instBytes -= e.compiled.MemSize()
			h.Inst.Close()
		}
		p.idle = nil
	}
	s.cond.Broadcast()
}

// lookup returns the cache entry for key, compiling (via build) on a miss,
// and counts the hit/miss (store-wide and per entry). The graph build and
// compile run outside the lock, so a slow generator stalls only the
// checkouts that need it; a concurrent duplicate build loses the insert
// race and is dropped.
func (s *Store) lookup(key string, build func() (*graph.Graph, error)) (*entry, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("corestore: store closed")
	}
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		e.hits++
		s.mu.Unlock()
		s.hits.Add(1)
		return e, true, nil
	}
	s.mu.Unlock()

	g, err := build()
	if err != nil {
		return nil, false, err
	}
	compiled, err := network.Compile(g, network.CompileOptions{BandwidthBits: s.opts.BandwidthBits})
	if err != nil {
		return nil, false, err
	}
	s.compiles.Add(1)
	// The fingerprint is the snapshot manifest key; computing it here, once
	// per compile and outside the lock, keeps Persist a pure file-writing
	// pass over already-keyed entries.
	fp := g.Fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("corestore: store closed")
	}
	if e, ok := s.entries[key]; ok { // lost the build race: reuse the winner
		s.lru.MoveToFront(e.elem)
		e.hits++
		s.hits.Add(1)
		return e, true, nil
	}
	e := &entry{
		key: key, g: g, compiled: compiled, fp: fp,
		pools: map[poolKey]*instPool{}, created: time.Now(),
	}
	s.insertLocked(e)
	s.misses.Add(1)
	return e, false, nil
}

// insertLocked installs e at the front of the LRU and runs eviction:
// byte-weighted first (the production bound), entry count as the secondary
// guard; the most recently used entry always survives, so a single
// over-budget graph still serves. Callers hold s.mu.
func (s *Store) insertLocked(e *entry) {
	e.elem = s.lru.PushFront(e)
	s.entries[e.key] = e
	s.cacheBytes += e.compiled.MemSize()
	s.gen++
	for s.lru.Len() > 1 &&
		(s.cacheBytes > s.opts.maxCacheBytes() || s.lru.Len() > s.opts.maxGraphs()) {
		victim := s.lru.Back().Value.(*entry)
		s.lru.Remove(victim.elem)
		delete(s.entries, victim.key)
		s.evictLocked(victim)
		s.evictions.Add(1)
	}
}

// errEvicted reports that an entry was LRU-evicted between lookup and a
// successful checkout; Checkout re-looks-up and retries against the live
// cache.
var errEvicted = errors.New("corestore: cache entry evicted")

// Checkout returns an exclusive warm handle on an instance of the graph
// cached under key (compiling via build on a miss) for the given engine and
// width (width <= 0 uses Options.DefaultWorkers). hit reports whether the
// core was already cached. The checkout spawns when the store-wide budget
// allows, reclaims an idle instance from the coldest graph when it does
// not, or waits — bounded by ctx AND by the queue bound: a full wait queue
// fails fast with *ErrSaturated. Entries evicted mid-checkout are retried
// transparently against the live cache.
func (s *Store) Checkout(ctx context.Context, key string, build func() (*graph.Graph, error),
	engine network.Engine, workers int) (h *Handle, hit bool, err error) {
	if workers <= 0 {
		workers = s.opts.defaultWorkers()
	}
	pk := poolKey{engine: engine, workers: workers}
	for {
		e, wasHit, err := s.lookup(key, build)
		if err != nil {
			return nil, false, err
		}
		h, err := s.acquire(ctx, e, pk)
		if err == nil {
			return h, wasHit, nil
		}
		if errors.Is(err, errEvicted) {
			if ctx.Err() == nil {
				continue
			}
			// The entry died AND the deadline expired: the deadline is what
			// the caller must see, not the internal eviction marker.
			err = ctx.Err()
		}
		return nil, false, err
	}
}

// acquire checks a warm handle out of e's pool for pk, observing the
// acquire-latency hook on success.
func (s *Store) acquire(ctx context.Context, e *entry, pk poolKey) (*Handle, error) {
	start := time.Now()
	h, err := s.acquireInner(ctx, e, pk)
	if err == nil && s.opts.ObserveAcquire != nil {
		s.opts.ObserveAcquire(time.Since(start))
	}
	return h, err
}

func (s *Store) acquireInner(ctx context.Context, e *entry, pk poolKey) (*Handle, error) {
	need := e.compiled.MemSize()
	maxBytes := s.opts.maxInstanceBytes()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, fmt.Errorf("corestore: store closed")
		}
		if e.evicted {
			s.mu.Unlock()
			return nil, errEvicted
		}
		p, ok := e.pools[pk]
		if !ok {
			p = &instPool{}
			e.pools[pk] = p
		}
		if n := len(p.idle); n > 0 {
			h := p.idle[n-1]
			p.idle[n-1] = nil // the backing array must not keep h reachable
			p.idle = p.idle[:n-1]
			s.mu.Unlock()
			return h, nil
		}
		// The first instance always spawns whatever its size (an
		// over-byte-budget giant must still serve); after that both the
		// count and the byte budget must cover it.
		if s.spawned < s.opts.maxInstances() &&
			(s.spawned == 0 || s.instBytes+need <= maxBytes) {
			s.spawned++
			s.instBytes += need
			s.mu.Unlock()
			inst, err := e.compiled.NewInstance(network.InstanceOptions{
				Engine:    pk.engine,
				Workers:   pk.workers,
				Faults:    s.opts.Faults,
				Collector: s.opts.Collector,
			})
			if err != nil {
				s.mu.Lock()
				s.spawned--
				s.instBytes -= need
				s.cond.Broadcast()
				s.mu.Unlock()
				return nil, err
			}
			return &Handle{Inst: inst, e: e, pk: pk}, nil
		}
		// Budget exhausted. Degrade gracefully: reclaim an idle instance
		// from the coldest pool (its warmth is worth less than this
		// checkout's latency), freeing budget for the spawn branch above.
		if s.reclaimIdleLocked() {
			continue
		}
		// Every instance is checked out. Fail fast when the wait queue is
		// already at its bound — the promise is an immediate *ErrSaturated,
		// never an unbounded pile of parked goroutines — else wait for a
		// release, bounded by ctx.
		if s.budgetWaiters >= s.opts.maxQueueDepth() {
			s.mu.Unlock()
			return nil, &ErrSaturated{
				Instances:  s.opts.maxInstances(),
				QueueDepth: s.opts.maxQueueDepth(),
			}
		}
		s.budgetWaiters++
		if s.opts.OnQueueEnter != nil {
			s.opts.OnQueueEnter()
		}
		waitStart := time.Now()
		err := s.waitLocked(ctx)
		s.budgetWaiters--
		if s.opts.OnQueueLeave != nil {
			s.opts.OnQueueLeave()
		}
		if s.opts.ObserveWait != nil {
			s.opts.ObserveWait(time.Since(waitStart))
		}
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
}

// reclaimIdleLocked closes one idle instance from the least recently used
// entry that has one and returns whether budget was freed. The pool the
// caller is acquiring for is empty (that is why it got here), so the scan
// can only ever reclaim a DIFFERENT pool's warmth — possibly the same
// graph's other engine. Callers hold s.mu.
func (s *Store) reclaimIdleLocked() bool {
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		for _, p := range e.pools {
			if n := len(p.idle); n > 0 {
				h := p.idle[n-1]
				// Clear the slot: a closed instance left in the backing
				// array stays reachable, with all its per-node state,
				// until the entry itself is evicted.
				p.idle[n-1] = nil
				p.idle = p.idle[:n-1]
				s.spawned--
				s.instBytes -= e.compiled.MemSize()
				h.Inst.Close()
				return true
			}
		}
	}
	return false
}

// waitLocked blocks on the store condition until something changes — a
// release, an eviction, a close — or ctx is done. Callers hold s.mu; the
// lock is held again when waitLocked returns. The context watcher takes
// s.mu before broadcasting, so it cannot fire between the caller's checks
// and the wait (no missed wakeups).
func (s *Store) waitLocked(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.cond.Wait()
	return ctx.Err()
}

// Release returns h to its pool — or closes its instance when the entry was
// evicted (or the store closed) while checked out — and wakes blocked
// acquirers: under a store-wide budget, a release anywhere may unblock a
// waiter on any entry. The handle must not be used after Release.
func (s *Store) Release(h *Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := h.e
	if e.evicted || s.closed {
		s.spawned--
		s.instBytes -= e.compiled.MemSize()
		h.Inst.Close()
	} else {
		p := e.pools[h.pk]
		p.idle = append(p.idle, h)
	}
	s.cond.Broadcast()
}

// Acquire implements sweep.CoreProvider directly on the store: sweep trials
// check instances out of the same LRU of compiled cores and warm pools the
// query traffic uses, under the same store-wide budget. The scheduler's
// budgeted engine width (pt.Workers) is honored, clamped to the hardware;
// width is part of the pool key, so sweep checkouts never poach a
// query-width warm instance or vice versa.
func (s *Store) Acquire(ctx context.Context, pt sweep.TrialPoint) (*network.Instance, func(), error) {
	key := sweep.FamilyKey(pt.Graph, pt.K, pt.Eps, pt.Seed)
	build := func() (*graph.Graph, error) {
		return sweep.BuildGraph(pt.Graph, pt.K, pt.Eps, pt.Seed)
	}
	width := pt.Workers
	if width <= 0 {
		width = s.opts.defaultWorkers()
	}
	if max := runtime.GOMAXPROCS(0); width > max {
		width = max
	}
	h, _, err := s.Checkout(ctx, key, build, pt.Engine, width)
	if err != nil {
		return nil, nil, err
	}
	return h.Inst, func() { s.Release(h) }, nil
}

// Counter accessors: one source of truth for the serving layer's
// CounterFunc/GaugeFunc wiring and /stats snapshots.

// Hits returns lookups served by a cached core.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns lookups that had to compile.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Compiles returns topology compilations ever performed (warm loads do not
// count: WarmStart's recompile happens inside DecodeSnapshot and is the
// restart's fixed cost, not cache churn).
func (s *Store) Compiles() int64 { return s.compiles.Load() }

// Evictions returns cores evicted from the LRU.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// Persists returns snapshot passes that wrote a manifest.
func (s *Store) Persists() int64 { return s.persists.Load() }

// WarmLoads returns cores loaded from snapshots by WarmStart.
func (s *Store) WarmLoads() int64 { return s.warmLoads.Load() }

// LoadFailures returns snapshot segments/manifests WarmStart rejected.
func (s *Store) LoadFailures() int64 { return s.loadFailures.Load() }

// DiskBytes returns the bytes the on-disk snapshot currently occupies.
func (s *Store) DiskBytes() int64 { return s.diskBytes.Load() }

// GraphsCached returns the number of cached cores.
func (s *Store) GraphsCached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// CacheBytes returns the summed compiled size of cached cores.
func (s *Store) CacheBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheBytes
}

// InstancesLive returns live instances store-wide: idle + checked out.
func (s *Store) InstancesLive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawned
}

// InstanceBytes returns the bytes pinned by live instances.
func (s *Store) InstanceBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instBytes
}

// InstancesIdle returns warm instances parked in pools.
func (s *Store) InstancesIdle() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := 0
	for el := s.lru.Front(); el != nil; el = el.Next() {
		for _, p := range el.Value.(*entry).pools {
			idle += len(p.idle)
		}
	}
	return idle
}

// MaxCacheBytes returns the byte budget eviction enforces.
func (s *Store) MaxCacheBytes() int64 { return s.opts.maxCacheBytes() }

// MaxInstances returns the store-wide cap on live instances.
func (s *Store) MaxInstances() int { return s.opts.maxInstances() }

// MaxInstanceBytes returns the byte cap on live instances.
func (s *Store) MaxInstanceBytes() int64 { return s.opts.maxInstanceBytes() }

// EntryStats describes one cached graph in a Stats snapshot.
type EntryStats struct {
	// Key is the cache key (family spec or "fp:"-prefixed fingerprint).
	Key string `json:"key"`
	// Fingerprint is the canonical graph fingerprint — the snapshot
	// manifest key of this entry.
	Fingerprint string `json:"fingerprint"`
	// N and M are the graph's dimensions.
	N int `json:"n"`
	M int `json:"m"`
	// Bytes is the compiled core's size (Compiled.MemSize).
	Bytes int64 `json:"bytes"`
	// Hits counts lookups served by this entry since it entered the cache.
	Hits int64 `json:"hits"`
	// AgeSeconds is the time since the entry entered the cache.
	AgeSeconds float64 `json:"age_seconds"`
	// InstancesIdle is the entry's parked warm instances, all pools.
	InstancesIdle int `json:"instances_idle"`
	// Warm marks entries loaded from a snapshot rather than compiled here.
	Warm bool `json:"warm,omitempty"`
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	GraphsCached     int          `json:"graphs_cached"`
	CacheBytes       int64        `json:"cache_bytes"`
	MaxCacheBytes    int64        `json:"max_cache_bytes"`
	InstanceBudget   int          `json:"instance_budget"`
	InstancesIdle    int          `json:"instances_idle"`
	InstancesLive    int          `json:"instances_live"`
	InstanceBytes    int64        `json:"instance_bytes"`
	MaxInstanceBytes int64        `json:"max_instance_bytes"`
	Hits             int64        `json:"hits"`
	Misses           int64        `json:"misses"`
	Compiles         int64        `json:"compiles"`
	Evictions        int64        `json:"evictions"`
	Persists         int64        `json:"persists"`
	WarmLoads        int64        `json:"warm_loads"`
	LoadFailures     int64        `json:"load_failures"`
	DiskBytes        int64        `json:"disk_bytes"`
	Entries          []EntryStats `json:"entries,omitempty"`
}

// Stats returns a snapshot of the store's counters and cached entries in
// recency order (most recent first).
func (s *Store) Stats() Stats {
	st := Stats{
		MaxCacheBytes:    s.opts.maxCacheBytes(),
		InstanceBudget:   s.opts.maxInstances(),
		MaxInstanceBytes: s.opts.maxInstanceBytes(),
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Compiles:         s.compiles.Load(),
		Evictions:        s.evictions.Load(),
		Persists:         s.persists.Load(),
		WarmLoads:        s.warmLoads.Load(),
		LoadFailures:     s.loadFailures.Load(),
		DiskBytes:        s.diskBytes.Load(),
	}
	now := time.Now()
	s.mu.Lock()
	st.GraphsCached = len(s.entries)
	st.CacheBytes = s.cacheBytes
	st.InstancesLive = s.spawned
	st.InstanceBytes = s.instBytes
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		es := EntryStats{
			Key:         e.key,
			Fingerprint: e.fp,
			N:           e.g.N(),
			M:           e.g.M(),
			Bytes:       e.compiled.MemSize(),
			Hits:        e.hits,
			AgeSeconds:  now.Sub(e.created).Seconds(),
			Warm:        e.warm,
		}
		for _, p := range e.pools {
			es.InstancesIdle += len(p.idle)
		}
		st.InstancesIdle += es.InstancesIdle
		st.Entries = append(st.Entries, es)
	}
	s.mu.Unlock()
	return st
}
