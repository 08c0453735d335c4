package corestore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

// fillStore checks three distinct graphs in and out so the LRU holds
// them hottest-last-touched first: c96 (hottest), c64, c48 (coldest).
func fillStore(t *testing.T, s *Store) {
	t.Helper()
	for _, n := range []int{48, 64, 96} {
		h, _ := mustCheckout(t, s, key(n), cycleBuild(n))
		s.Release(h)
	}
}

func key(n int) string { return "fp:" + graph.Cycle(n).Fingerprint() }

func runTester(t *testing.T, h *Handle, seed uint64) *network.Result {
	t.Helper()
	res, err := h.Inst.RunProgram(&core.Tester{K: 5, Reps: 3}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPersistWarmStartRoundTrip is the warm-restart acceptance pin: a
// store persisted and reloaded into a fresh process serves the same
// working set — cache hits, zero compiles — and a query on a warm-loaded
// core is byte-identical to the same query on the freshly compiled core.
func TestPersistWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Dir: dir, PersistInterval: -1})
	fillStore(t, s1)
	// The fresh-compiled reference result.
	h, _, err := s1.Checkout(t.Context(), key(64), cycleBuild(64), network.EngineBSP, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := runTester(t, h, 11)
	s1.Release(h)
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := New(Options{Dir: dir, PersistInterval: -1})
	defer s2.Close()
	if n := s2.WarmStart(dir); n != 3 {
		t.Fatalf("WarmStart loaded %d cores, want 3", n)
	}
	if s2.WarmLoads() != 3 || s2.LoadFailures() != 0 {
		t.Fatalf("warmLoads=%d loadFailures=%d, want 3/0", s2.WarmLoads(), s2.LoadFailures())
	}
	if s2.DiskBytes() == 0 {
		t.Fatal("DiskBytes not tracked after warm start")
	}
	st := s2.Stats()
	if len(st.Entries) != 3 || !st.Entries[0].Warm {
		t.Fatalf("stats entries %+v: want 3 warm entries", st.Entries)
	}
	// Recency order survived the restart: c64 (touched last by the
	// reference runs above) first, cold c48 last.
	if st.Entries[0].N != 64 || st.Entries[2].N != 48 {
		t.Fatalf("warm LRU order [%d %d %d], want [64 96 48]",
			st.Entries[0].N, st.Entries[1].N, st.Entries[2].N)
	}

	h, hit, err := s2.Checkout(t.Context(), key(64), func() (*graph.Graph, error) {
		t.Fatal("warm entry must not rebuild")
		return nil, nil
	}, network.EngineBSP, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm-started entry missed")
	}
	got := runTester(t, h, 11)
	s2.Release(h)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm-loaded run differs from fresh-compiled run")
	}
	if s2.Compiles() != 0 {
		t.Fatalf("warm store compiled %d times serving its working set, want 0", s2.Compiles())
	}
}

// Persist is generation-gated: a pass over an unchanged cache writes
// nothing, an insert dirties the next pass.
func TestPersistSkipUnchanged(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir, PersistInterval: -1})
	defer s.Close()
	fillStore(t, s)
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	// Touch the LRU (a hit reorders, no insert/evict): still a no-op pass.
	h, _ := mustCheckout(t, s, key(48), cycleBuild(48))
	s.Release(h)
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	if s.Persists() != 1 {
		t.Fatalf("persists=%d after unchanged pass, want 1", s.Persists())
	}
	h2, _ := mustCheckout(t, s, key(128), cycleBuild(128))
	s.Release(h2)
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	if s.Persists() != 2 {
		t.Fatalf("persists=%d after insert, want 2", s.Persists())
	}
}

// TestManifestKeyMatchesServeCacheKey pins the identity the durable store
// depends on (and that graph.Graph.Fingerprint's doc comment promises):
// the serving tier caches explicit graphs under "fp:" + Graph.Fingerprint
// (internal/serve/types.go), and the snapshot manifest content-addresses
// segments by the same canonical fingerprint. If the two keys ever
// diverged, a warm restart would re-serve explicit graphs under keys no
// query can reach.
func TestManifestKeyMatchesServeCacheKey(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir, PersistInterval: -1})
	defer s.Close()
	g := graph.Cycle(40)
	serveKey := "fp:" + g.Fingerprint() // exactly how serve keys explicit graphs
	h, _ := mustCheckout(t, s, serveKey, func() (*graph.Graph, error) { return g, nil })
	s.Release(h)
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}

	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 1 {
		t.Fatalf("manifest has %d entries, want 1", len(m.Entries))
	}
	me := m.Entries[0]
	if me.Key != serveKey {
		t.Fatalf("manifest key %q, serve cache key %q", me.Key, serveKey)
	}
	if me.Fingerprint != g.Fingerprint() {
		t.Fatalf("manifest fingerprint %q, canonical Graph.Fingerprint %q", me.Fingerprint, g.Fingerprint())
	}
	if want := strings.TrimPrefix(serveKey, "fp:"); me.Fingerprint != want {
		t.Fatalf("manifest fingerprint %q is not the serve key's fingerprint %q", me.Fingerprint, want)
	}
	if me.Segment != me.Fingerprint+segSuffix {
		t.Fatalf("segment %q is not content-addressed by fingerprint", me.Segment)
	}
	if _, err := os.Stat(filepath.Join(dir, me.Segment)); err != nil {
		t.Fatal(err)
	}
}

// WarmStart honors the cache budgets from the manifest alone: entries past
// the cut are never read off disk.
func TestWarmStartBudget(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Dir: dir, PersistInterval: -1})
	fillStore(t, s1)
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := New(Options{MaxGraphs: 2})
	defer s2.Close()
	if n := s2.WarmStart(dir); n != 2 {
		t.Fatalf("WarmStart loaded %d with MaxGraphs=2, want 2", n)
	}
	st := s2.Stats()
	// The hottest prefix survives: c96 and c64; the cold c48 is cut.
	if st.Entries[0].N != 96 || st.Entries[1].N != 64 {
		t.Fatalf("budget cut kept [%d %d], want [96 64]", st.Entries[0].N, st.Entries[1].N)
	}
	if s2.LoadFailures() != 0 {
		t.Fatal("a budget cut is not a load failure")
	}
}

// Orphaned segments (evicted or superseded cores) are garbage-collected by
// the next persist pass, after the new manifest is in place.
func TestPersistGCOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{MaxGraphs: 1, Dir: dir, PersistInterval: -1})
	defer s.Close()
	h, _ := mustCheckout(t, s, key(48), cycleBuild(48))
	s.Release(h)
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	h2, _ := mustCheckout(t, s, key(64), cycleBuild(64)) // evicts c48
	s.Release(h2)
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || !strings.HasSuffix(segs[0], graph.Cycle(64).Fingerprint()+segSuffix) {
		t.Fatalf("segments after GC: %v, want just c64's", segs)
	}
}

// The corruption table (satellite c): every way a snapshot can rot —
// truncated, bit-flipped, version-bumped, deleted, at both the segment and
// the manifest level — must degrade to a logged, counted cold start for
// the affected cores while the store keeps serving them via recompile.
func TestWarmStartCorruption(t *testing.T) {
	seed := t.TempDir()
	s0 := New(Options{Dir: seed, PersistInterval: -1})
	fillStore(t, s0)
	if err := s0.Persist(); err != nil {
		t.Fatal(err)
	}
	s0.Close()
	c64seg := graph.Cycle(64).Fingerprint() + segSuffix

	cases := []struct {
		name string
		// corrupt mutates one snapshot dir in place.
		corrupt      func(t *testing.T, dir string)
		wantLoaded   int
		wantFailures int64
	}{
		{"segment truncated", func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, c64seg), segHeaderSize+10); err != nil {
				t.Fatal(err)
			}
		}, 2, 1},
		{"segment truncated inside header", func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, c64seg), 7); err != nil {
				t.Fatal(err)
			}
		}, 2, 1},
		{"segment payload bit-flip", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, c64seg), segHeaderSize+5)
		}, 2, 1},
		{"segment version bump", func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, c64seg), 8)
		}, 2, 1},
		{"segment deleted", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, c64seg)); err != nil {
				t.Fatal(err)
			}
		}, 2, 1},
		{"manifest truncated", func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, manifestName), 20); err != nil {
				t.Fatal(err)
			}
		}, 0, 1},
		{"manifest version bump", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *manifest) { m.Version = 99 })
		}, 0, 1},
		{"manifest bandwidth mismatch", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *manifest) { m.BandwidthBits = 512 })
		}, 0, 1},
		{"manifest fingerprint swap", func(t *testing.T, dir string) {
			// Point c64's entry at c48's segment: the payload fingerprint
			// check must refuse to serve the wrong graph under the key.
			rewriteManifest(t, dir, func(m *manifest) {
				for i := range m.Entries {
					if m.Entries[i].Segment == c64seg {
						m.Entries[i].Fingerprint = graph.Cycle(48).Fingerprint()
					}
				}
			})
		}, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, seed, dir)
			tc.corrupt(t, dir)

			var logs []string
			s := New(Options{Logf: func(f string, a ...any) {
				logs = append(logs, f)
			}})
			defer s.Close()
			if n := s.WarmStart(dir); n != tc.wantLoaded {
				t.Fatalf("WarmStart loaded %d, want %d", n, tc.wantLoaded)
			}
			if s.LoadFailures() != tc.wantFailures {
				t.Fatalf("loadFailures=%d, want %d", s.LoadFailures(), tc.wantFailures)
			}
			if len(logs) == 0 {
				t.Fatal("corruption was not logged")
			}
			// The store still serves every graph: the damaged one recompiles.
			h, hit := mustCheckout(t, s, key(64), cycleBuild(64))
			if hit {
				t.Fatal("corrupt core was served as a cache hit")
			}
			runTester(t, h, 3)
			s.Release(h)
			if tc.wantLoaded > 0 {
				if _, hit := mustCheckout(t, s, key(96), cycleBuild(96)); !hit {
					t.Fatal("undamaged sibling core did not warm-load")
				}
			}
		})
	}
}

// A missing snapshot dir is a cold start, not a failure.
func TestWarmStartMissingDir(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	if n := s.WarmStart(filepath.Join(t.TempDir(), "never-written")); n != 0 {
		t.Fatalf("loaded %d from a missing dir", n)
	}
	if s.LoadFailures() != 0 {
		t.Fatal("a missing dir must not count as a load failure")
	}
}

// Close takes a final snapshot: a store that never called Persist still
// leaves a loadable working set behind.
func TestCloseTakesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{Dir: dir, PersistInterval: -1})
	fillStore(t, s1)
	s1.Close()

	s2 := New(Options{})
	defer s2.Close()
	if n := s2.WarmStart(dir); n != 3 {
		t.Fatalf("WarmStart after Close-only persist loaded %d, want 3", n)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func rewriteManifest(t *testing.T, dir string, mutate func(*manifest)) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
