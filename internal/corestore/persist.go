package corestore

// Durable snapshots: the on-disk format and the Persist/WarmStart passes.
//
// Layout under Options.Dir:
//
//	MANIFEST.json        — the index: version, compile budget, and the
//	                       cached entries in LRU order (most recent first),
//	                       each naming its cache key, canonical graph
//	                       fingerprint, compiled size, and segment file.
//	<fingerprint>.seg    — one compiled core: a fixed header (magic,
//	                       version, payload length, CRC-32C of the payload)
//	                       followed by the network snapshot payload
//	                       (Compiled.AppendSnapshot).
//
// Every write goes to a temp file in the same directory and is renamed
// into place, so readers — including a WarmStart racing a crashed
// previous process — only ever see complete files; torn writes die as a
// length or CRC mismatch, and WarmStart treats any bad file as a cache
// miss (log, count corestore_load_failures_total, recompile on demand),
// never as a fatal error. Segments are content-addressed by fingerprint,
// so a persist pass skips bytes already on disk and a manifest rewrite is
// the only steady-state cost of an unchanged working set — and even that
// is skipped when the cache generation hasn't moved (LRU-order churn
// alone is deliberately not persisted: the order is a hint, not state
// worth an fsync per query).

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cycledetect/internal/network"
)

// manifestName is the snapshot index file under Options.Dir.
const manifestName = "MANIFEST.json"

// segSuffix is the per-core segment file suffix; the stem is the graph's
// canonical fingerprint (64 hex chars — filesystem-safe by construction).
const segSuffix = ".seg"

// segMagic guards segment files: "cksegv~1" little-endian.
const segMagic uint64 = 0x317e766765736b63

// segVersion tags the segment header layout.
const segVersion = 1

// segHeaderSize is the fixed segment header: magic, version, payload
// length, CRC-32C — four uint64 words.
const segHeaderSize = 32

// manifestVersion tags the manifest schema.
const manifestVersion = 1

// castagnoli is the CRC-32C table segments are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest is the JSON schema of MANIFEST.json.
type manifest struct {
	Version int `json:"version"`
	// BandwidthBits is the per-message budget every segment's core was
	// compiled with; a store configured differently recompiles instead of
	// loading (the snapshot would run with the wrong budget).
	BandwidthBits int `json:"bandwidth_bits"`
	// Entries lists the working set in LRU order, most recently used first
	// — the order WarmStart loads (and re-ranks) them in.
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	// Key is the live cache key (family spec or "fp:"-prefixed
	// fingerprint) the entry serves under.
	Key string `json:"key"`
	// Fingerprint is the canonical graph fingerprint — the content address
	// of the segment.
	Fingerprint string `json:"fingerprint"`
	// Bytes is the compiled core's in-memory size, letting WarmStart
	// honor the cache byte budget before reading any segment.
	Bytes int64 `json:"bytes"`
	// Segment is the segment file name, relative to the snapshot dir.
	Segment string `json:"segment"`
}

// encodeSegment frames a core's snapshot payload under the checksummed
// segment header.
func encodeSegment(c *network.Compiled) []byte {
	buf := make([]byte, segHeaderSize, segHeaderSize+c.SnapshotSize())
	buf = c.AppendSnapshot(buf)
	payload := buf[segHeaderSize:]
	binary.LittleEndian.PutUint64(buf[0:8], segMagic)
	binary.LittleEndian.PutUint64(buf[8:16], segVersion)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(crc32.Checksum(payload, castagnoli)))
	return buf
}

// decodeSegment verifies a segment's framing — magic, version, length,
// CRC — and returns the snapshot payload.
func decodeSegment(data []byte) ([]byte, error) {
	if len(data) < segHeaderSize {
		return nil, fmt.Errorf("segment header truncated (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint64(data[0:8]); magic != segMagic {
		return nil, fmt.Errorf("bad segment magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint64(data[8:16]); v != segVersion {
		return nil, fmt.Errorf("segment version %d, want %d", v, segVersion)
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if uint64(len(data)-segHeaderSize) != n {
		return nil, fmt.Errorf("segment payload is %d bytes, header says %d", len(data)-segHeaderSize, n)
	}
	payload := data[segHeaderSize:]
	want := uint32(binary.LittleEndian.Uint64(data[24:32]))
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("segment CRC mismatch: %#x, want %#x", got, want)
	}
	return payload, nil
}

// persistLoop is the background rate limiter: one Persist pass per
// interval, stopped by Close (which then takes the final pass itself).
func (s *Store) persistLoop(interval time.Duration) {
	defer close(s.loopDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
			if err := s.Persist(); err != nil {
				s.logf("corestore: persist: %v", err)
			}
		}
	}
}

// persistItem is one entry's snapshot work, captured under s.mu and
// executed outside it.
type persistItem struct {
	key      string
	fp       string
	compiled *network.Compiled
	bytes    int64
}

// Persist snapshots the current working set to Options.Dir: one
// content-addressed segment per cached core (skipped when its bytes are
// already on disk) and an atomically replaced manifest. A pass whose cache
// generation matches the last persisted one is a no-op — LRU reordering
// alone does not dirty the snapshot. Entry state is captured under the
// store lock; every byte of file IO happens outside it, so a slow disk
// never stalls checkouts.
func (s *Store) Persist() error {
	if s.opts.Dir == "" {
		return fmt.Errorf("corestore: no snapshot dir configured")
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()

	s.mu.Lock()
	gen := s.gen
	if gen == s.persistedGen && s.persistedGen != 0 {
		s.mu.Unlock()
		return nil // unchanged since the last pass
	}
	items := make([]persistItem, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		items = append(items, persistItem{
			key: e.key, fp: e.fp, compiled: e.compiled, bytes: e.compiled.MemSize(),
		})
	}
	s.mu.Unlock()

	if err := os.MkdirAll(s.opts.Dir, 0o755); err != nil {
		return err
	}
	m := manifest{Version: manifestVersion, BandwidthBits: s.opts.BandwidthBits}
	var diskBytes int64
	live := make(map[string]bool, len(items))
	for _, it := range items {
		seg := it.fp + segSuffix
		live[seg] = true
		path := filepath.Join(s.opts.Dir, seg)
		enc := encodeSegment(it.compiled)
		// Content-addressed: a segment of the right name and size is the
		// right bytes unless the disk corrupted it — and corruption is
		// WarmStart's CRC check's job, not a reason to rewrite every pass.
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(enc)) {
			if err := writeFileAtomic(path, enc); err != nil {
				return fmt.Errorf("corestore: segment %s: %w", seg, err)
			}
		}
		diskBytes += int64(len(enc))
		m.Entries = append(m.Entries, manifestEntry{
			Key: it.key, Fingerprint: it.fp, Bytes: it.bytes, Segment: seg,
		})
	}
	mb, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.opts.Dir, manifestName), mb); err != nil {
		return fmt.Errorf("corestore: manifest: %w", err)
	}
	diskBytes += int64(len(mb))
	// GC segments the manifest no longer references — evicted cores must
	// not accumulate on disk forever. Only done AFTER the new manifest is
	// in place, so a crash mid-GC leaves garbage, never a dangling index.
	if names, err := os.ReadDir(s.opts.Dir); err == nil {
		for _, de := range names {
			name := de.Name()
			if strings.HasSuffix(name, segSuffix) && !live[name] {
				os.Remove(filepath.Join(s.opts.Dir, name))
			}
		}
	}
	s.diskBytes.Store(diskBytes)
	s.persists.Add(1)
	s.mu.Lock()
	// Record the generation we SNAPSHOTTED, not the current one: inserts
	// that raced this pass dirty the next one.
	s.persistedGen = gen
	s.mu.Unlock()
	return nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory and an atomic rename, so concurrent readers and crashed
// writers never observe a partial file.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// WarmStart loads a previous working set from dir, in the manifest's LRU
// order (most recently used first) and within the cache's byte and entry
// budgets, so what survives the budget cut is exactly the hottest prefix
// of the previous process's cache. Anything wrong with the snapshot — a
// missing or unparseable manifest, a mismatched compile budget, a
// truncated, bit-flipped, or version-bumped segment, a fingerprint that
// doesn't match its payload — is logged, counted in LoadFailures, and
// SKIPPED: the store stays correct (those graphs recompile on first use),
// it just starts colder. Returns the number of cores loaded.
//
// Call it once, after New and before serving traffic; entries it installs
// are marked warm in Stats.
func (s *Store) WarmStart(dir string) int {
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if !os.IsNotExist(err) {
			s.loadFailures.Add(1)
			s.logf("corestore: warm start: reading manifest: %v", err)
		}
		return 0 // a fresh dir is not a failure, just a cold start
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		s.loadFailures.Add(1)
		s.logf("corestore: warm start: manifest unparseable, starting cold: %v", err)
		return 0
	}
	if m.Version != manifestVersion {
		s.loadFailures.Add(1)
		s.logf("corestore: warm start: manifest version %d (want %d), starting cold", m.Version, manifestVersion)
		return 0
	}
	if m.BandwidthBits != s.opts.BandwidthBits {
		s.loadFailures.Add(1)
		s.logf("corestore: warm start: snapshot compiled with bandwidth %d, store wants %d; starting cold",
			m.BandwidthBits, s.opts.BandwidthBits)
		return 0
	}
	loaded := 0
	var loadedBytes int64
	var diskBytes int64 = int64(len(mb))
	for _, me := range m.Entries {
		// Budget first, from the manifest's sizes: past the byte or entry
		// budget the remaining (colder) entries aren't read at all.
		if loaded >= s.opts.maxGraphs() || (loaded > 0 && loadedBytes+me.Bytes > s.opts.maxCacheBytes()) {
			break
		}
		c, n, err := s.loadSegment(dir, me)
		if err != nil {
			s.loadFailures.Add(1)
			s.logf("corestore: warm start: %s: %v (will recompile on demand)", me.Segment, err)
			continue
		}
		diskBytes += n
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			break
		}
		if _, dup := s.entries[me.Key]; dup {
			s.mu.Unlock()
			continue
		}
		e := &entry{
			key: me.Key, g: c.Graph(), compiled: c, fp: me.Fingerprint,
			pools: map[int]*instPool{}, created: time.Now(), warm: true,
		}
		// PushBack, not insertLocked's PushFront: the manifest iterates
		// hottest-first, so appending preserves the previous process's
		// recency order.
		e.elem = s.lru.PushBack(e)
		s.entries[e.key] = e
		s.cacheBytes += c.MemSize()
		s.gen++
		s.mu.Unlock()
		loaded++
		loadedBytes += c.MemSize()
		s.warmLoads.Add(1)
	}
	if loaded > 0 {
		s.diskBytes.Store(diskBytes)
	}
	return loaded
}

// loadSegment reads, verifies, and recompiles one manifest entry's core,
// returning it with the segment's on-disk size. Every check is semantic
// ground truth, not trust in the manifest: the segment framing (CRC
// included), the snapshot decode (which re-validates the graph and
// recompiles), the compile budget, and the fingerprint — which must match
// the manifest's content address, or the entry would serve a different
// graph than its cache key promises.
func (s *Store) loadSegment(dir string, me manifestEntry) (*network.Compiled, int64, error) {
	if me.Segment != me.Fingerprint+segSuffix || strings.ContainsAny(me.Segment, "/\\") {
		return nil, 0, fmt.Errorf("segment name does not match fingerprint")
	}
	data, err := os.ReadFile(filepath.Join(dir, me.Segment))
	if err != nil {
		return nil, 0, err
	}
	payload, err := decodeSegment(data)
	if err != nil {
		return nil, 0, err
	}
	c, err := network.DecodeSnapshot(payload)
	if err != nil {
		return nil, 0, err
	}
	if c.BandwidthBits() != s.opts.BandwidthBits {
		return nil, 0, fmt.Errorf("segment compiled with bandwidth %d, store wants %d",
			c.BandwidthBits(), s.opts.BandwidthBits)
	}
	if fp := c.Graph().Fingerprint(); fp != me.Fingerprint {
		return nil, 0, fmt.Errorf("payload fingerprint %.12s... does not match manifest %.12s...",
			fp, me.Fingerprint)
	}
	return c, int64(len(data)), nil
}
