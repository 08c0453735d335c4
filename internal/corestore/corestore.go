// Package corestore is the compiled-core store behind the serving tier: an
// in-memory LRU of immutable network.Compiled cores (byte-weighted by
// Compiled.MemSize) and per-graph pools of warm network.Instances, all of
// one engine width, under one store-wide two-dimensional instance budget
// (count and pinned bytes) with coldest-graph idle reclaim.
//
// The store is the one cache of compiled cores. Every caller checks
// instances out through Checkout under a key of its choosing: serve's
// /query per run, and each job of sweep.RunCtx, which keys family graphs by
// sweep.FamilyKey and by default runs on a private store of its own. The
// store is a cache and an instance pool, nothing more: a checkout that
// finds the budget spent waits for a release, bounded only by its context,
// and how many callers may wait is the caller's to bound (serve's query
// gate does). The store depends only on the graph and network layers.
//
// Every cached core is a pure function of the request that built it (a
// family spec and seed, or an uploaded edge list), so nothing here outlives
// the process: a restarted store recompiles on first touch.
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
	// DefaultWorkers is the engine width of every instance the store spawns
	// (default 1).
	DefaultWorkers int
	// BandwidthBits, if positive, compiles a hard per-message budget into
	// every cached core.
	BandwidthBits int
	// Collector, when non-nil, receives per-run metrics from every spawned
	// instance.
	Collector network.RunCollector
}

// defaultBytes bounds the cache and the instance bytes when unset.
const defaultBytes = 256 << 20

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

func (o Options) defaultWorkers() int {
	if o.DefaultWorkers > 0 {
		return o.DefaultWorkers
	}
	return 1
}

// Store is the compiled-core store. Create with New, release with Close.
// All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu         sync.Mutex
	cond       *sync.Cond // signaled on release, eviction, budget change, close
	entries    map[string]*entry
	flights    map[string]*flight // keys being built and compiled
	lru        *list.List         // of *entry; front = most recently used
	cacheBytes int64              // summed MemSize of cached cores
	spawned    int                // live instances store-wide: idle + checked out
	instBytes  int64              // summed MemSize pinned by live instances
	closed     bool

	hits      atomic.Int64
	misses    atomic.Int64
	compiles  atomic.Int64
	evictions atomic.Int64
}

// entry is one cached graph: its immutable compiled core plus the pool of
// its idle warm handles. All bookkeeping is guarded by Store.mu; blocked
// acquirers wait on Store.cond, because a store-wide budget means a release
// anywhere can unblock a waiter everywhere.
type entry struct {
	key      string
	elem     *list.Element
	g        *graph.Graph
	compiled *network.Compiled
	idle     []*Handle
	evicted  bool
	hits     int64     // lookups served by this entry (guarded by Store.mu)
	created  time.Time // when the entry entered the cache
}

// flight is the one build and compile of a key that is not cached yet.
// Checkouts of the key that arrive meanwhile wait for done instead of
// compiling the graph again; err, written before done is closed, is the
// build's error.
type flight struct {
	done    chan struct{}
	err     error
	waiters int // checkouts that waited on this build (guarded by Store.mu)
}

// Handle is one checked-out warm instance. The caller has exclusive use of
// Inst until Release; Scratch is caller-owned state that survives with the
// handle across checkouts of the same graph (the serving layer parks its
// per-instance program cache there), starting nil on a fresh spawn.
type Handle struct {
	Inst    *network.Instance
	Scratch any

	e *entry
}

// New returns an empty Store.
func New(opts Options) *Store {
	s := &Store{
		opts:    opts,
		entries: make(map[string]*entry),
		flights: make(map[string]*flight),
		lru:     list.New(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Close evicts every cached graph and closes all idle instances. Checked-out
// handles stay valid; their instances are closed on Release. Further
// checkouts fail.
func (s *Store) Close() {
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
	for _, h := range e.idle {
		s.spawned--
		s.instBytes -= e.compiled.MemSize()
		h.Inst.Close()
	}
	e.idle = nil
	s.cond.Broadcast()
}

// lookup returns the cache entry for key, compiling (via build) on a miss,
// and counts the hit/miss (store-wide and per entry). The graph build and
// compile run outside the lock, so a slow generator stalls only the
// checkouts that need it, and once per key: a checkout that finds the key
// being built waits for that build, bounded by ctx and with no lock held,
// and shares its core or its error. A checkout that waited did not find
// the core cached, so it reports and counts a miss like the one that
// built it; the store counts one compile.
func (s *Store) lookup(ctx context.Context, key string, build func() (*graph.Graph, error)) (*entry, bool, error) {
	waited := false
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, false, errClosed
		}
		if e, ok := s.entries[key]; ok {
			s.lru.MoveToFront(e.elem)
			if waited {
				s.mu.Unlock()
				s.misses.Add(1)
				return e, false, nil
			}
			e.hits++
			s.mu.Unlock()
			s.hits.Add(1)
			return e, true, nil
		}
		if f, ok := s.flights[key]; ok {
			f.waiters++
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err != nil {
				return nil, false, f.err
			}
			// The core is cached now, unless it was already evicted; then
			// the next pass builds it again.
			waited = true
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()
		return s.buildEntry(key, build, f)
	}
}

// buildEntry runs the build and compile that lookup registered as f, caches
// the result and counts the miss. Whatever happens, even a panicking build, it
// ends the flight: waiters see the error, or retry the lookup.
func (s *Store) buildEntry(key string, build func() (*graph.Graph, error), f *flight) (e *entry, hit bool, err error) {
	defer func() {
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		f.err = err
		close(f.done)
	}()
	g, err := build()
	if err != nil {
		return nil, false, err
	}
	compiled, err := network.Compile(g, network.CompileOptions{BandwidthBits: s.opts.BandwidthBits})
	if err != nil {
		return nil, false, err
	}
	s.compiles.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errClosed
	}
	s.misses.Add(1)
	e = &entry{key: key, g: g, compiled: compiled, created: time.Now()}
	s.insertLocked(e)
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
	for s.lru.Len() > 1 &&
		(s.cacheBytes > s.opts.maxCacheBytes() || s.lru.Len() > s.opts.maxGraphs()) {
		victim := s.lru.Back().Value.(*entry)
		s.lru.Remove(victim.elem)
		delete(s.entries, victim.key)
		s.evictLocked(victim)
		s.evictions.Add(1)
	}
}

// errClosed is the error of every lookup and checkout on a closed store.
var errClosed = errors.New("corestore: store closed")

// errEvicted reports that an entry was LRU-evicted between lookup and a
// successful checkout; Checkout re-looks-up and retries against the live
// cache.
var errEvicted = errors.New("corestore: cache entry evicted")

// Checkout returns an exclusive warm handle on an instance of the graph
// cached under key (compiling via build on a miss). Every instance runs at
// the store's width, Options.DefaultWorkers: workers must be 0 or that
// width, and engine must be "" or network.EngineBSP, the only engine; any
// other value is refused before the lookup. hit reports whether the
// checkout found the core cached; one that compiled it, or waited for a
// concurrent checkout of the same key to compile it, reports false. The
// checkout spawns when the store-wide budget allows, reclaims an idle
// instance from the coldest graph when it does not, or waits for a release,
// bounded by ctx alone: the store does not count or bound its waiters.
// Entries evicted mid-checkout are retried transparently against the live
// cache.
func (s *Store) Checkout(ctx context.Context, key string, build func() (*graph.Graph, error),
	engine network.Engine, workers int) (h *Handle, hit bool, err error) {
	if engine != "" && engine != network.EngineBSP {
		return nil, false, fmt.Errorf("corestore: unknown engine %q", engine)
	}
	if workers != 0 && workers != s.opts.defaultWorkers() {
		return nil, false, fmt.Errorf("corestore: width %d is not the store's width %d", workers, s.opts.defaultWorkers())
	}
	for {
		e, wasHit, err := s.lookup(ctx, key, build)
		if err != nil {
			return nil, false, err
		}
		h, err := s.acquire(ctx, e)
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

// acquire checks a warm handle out of e's pool: an idle one, a fresh spawn
// within the budget, or one that a reclaim or a release makes room for.
func (s *Store) acquire(ctx context.Context, e *entry) (*Handle, error) {
	need := e.compiled.MemSize()
	maxBytes := s.opts.maxInstanceBytes()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, errClosed
		}
		if e.evicted {
			s.mu.Unlock()
			return nil, errEvicted
		}
		if n := len(e.idle); n > 0 {
			h := e.idle[n-1]
			e.idle[n-1] = nil // the backing array must not keep h reachable
			e.idle = e.idle[:n-1]
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
				Workers:   s.opts.defaultWorkers(),
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
			return &Handle{Inst: inst, e: e}, nil
		}
		// Budget exhausted. Degrade gracefully: reclaim an idle instance
		// from the coldest pool (its warmth is worth less than this
		// checkout's latency), freeing budget for the spawn branch above.
		if s.reclaimIdleLocked() {
			continue
		}
		// Every instance is checked out: wait for a release, bounded by ctx.
		if err := s.waitLocked(ctx); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
}

// reclaimIdleLocked closes one idle instance from the least recently used
// entry that has one and returns whether budget was freed. The pool the
// caller is acquiring for is empty (that is why it got here), so the scan
// can only ever reclaim another graph's warmth. Callers hold s.mu.
func (s *Store) reclaimIdleLocked() bool {
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if n := len(e.idle); n > 0 {
			h := e.idle[n-1]
			// Clear the slot: a closed instance left in the backing array
			// stays reachable, with all its per-node state, until the entry
			// itself is evicted.
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
			s.spawned--
			s.instBytes -= e.compiled.MemSize()
			h.Inst.Close()
			return true
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

// Release returns h to its graph's pool — or closes its instance when the
// entry was evicted (or the store closed) while checked out — and wakes
// blocked acquirers: under a store-wide budget, a release anywhere may unblock a
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
		e.idle = append(e.idle, h)
	}
	s.cond.Broadcast()
}

// EntryStats describes one cached graph in a Stats snapshot.
type EntryStats struct {
	// Key is the cache key (family spec or "fp:"-prefixed fingerprint).
	Key string `json:"key"`
	// N and M are the graph's dimensions.
	N int `json:"n"`
	M int `json:"m"`
	// Bytes is the compiled core's size (Compiled.MemSize).
	Bytes int64 `json:"bytes"`
	// Hits counts lookups served by this entry since it entered the cache.
	Hits int64 `json:"hits"`
	// AgeSeconds is the time since the entry entered the cache.
	AgeSeconds float64 `json:"age_seconds"`
	// InstancesIdle is the entry's parked warm instances.
	InstancesIdle int `json:"instances_idle"`
}

// Stats is a point-in-time snapshot of the store, its one read API.
type Stats struct {
	// GraphsCached is the number of cached cores, and CacheBytes their
	// summed compiled size; MaxCacheBytes is the byte budget eviction
	// enforces.
	GraphsCached  int   `json:"graphs_cached"`
	CacheBytes    int64 `json:"cache_bytes"`
	MaxCacheBytes int64 `json:"max_cache_bytes"`
	// InstanceBudget is the store-wide cap on live instances, and
	// MaxInstanceBytes the cap on the bytes they pin. InstancesLive counts
	// idle plus checked-out instances, InstancesIdle the warm ones parked in
	// pools, and InstanceBytes the bytes the live ones pin.
	InstanceBudget   int   `json:"instance_budget"`
	InstancesIdle    int   `json:"instances_idle"`
	InstancesLive    int   `json:"instances_live"`
	InstanceBytes    int64 `json:"instance_bytes"`
	MaxInstanceBytes int64 `json:"max_instance_bytes"`
	// Hits counts lookups served by a cached core, Misses those that had
	// to compile (or wait for a concurrent compile), Compiles the topology
	// compilations ever performed, and Evictions the cores evicted from
	// the LRU.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Compiles  int64 `json:"compiles"`
	Evictions int64 `json:"evictions"`
	// Entries lists the cached graphs, most recent first.
	Entries []EntryStats `json:"entries,omitempty"`
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
			Key:           e.key,
			N:             e.g.N(),
			M:             e.g.M(),
			Bytes:         e.compiled.MemSize(),
			Hits:          e.hits,
			AgeSeconds:    now.Sub(e.created).Seconds(),
			InstancesIdle: len(e.idle),
		}
		st.InstancesIdle += es.InstancesIdle
		st.Entries = append(st.Entries, es)
	}
	s.mu.Unlock()
	return st
}
