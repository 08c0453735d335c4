package network

// Snapshot codec for compiled cores: the persistent form a Compiled takes
// in the corestore's on-disk segments. A snapshot serializes the INPUTS of
// Compile — the canonical graph encoding plus the resolved CompileOptions
// (ID assignment and bandwidth budget) — not the derived topology:
// DecodeSnapshot re-runs Compile on them, and because Compile is a pure
// deterministic function of (graph, options), the decoded core is
// indistinguishable from the original. In particular a program run on a
// warm-started core is byte-identical to the same run on a freshly compiled
// one (locked by TestSnapshotRoundTripRuns).
//
// The codec carries NO integrity machinery of its own — framing, checksums,
// and atomic installation belong to the segment files in
// internal/corestore. What it does validate is semantic: version, graph CSR
// invariants (via graph.DecodeBinary), and — through buildTopology inside
// Compile — ID uniqueness and range. Arbitrary bytes therefore decode to an
// error, never a malformed core (FuzzDecodeSnapshot feeds it garbage).

import (
	"encoding/binary"
	"fmt"

	"cycledetect/internal/graph"
)

// snapshotMagic guards against handing a segment payload from some other
// subsystem (or plain garbage) to the snapshot decoder: "ckcore~1" in
// little-endian.
const snapshotMagic uint64 = 0x317e65726f636b63

// snapshotVersion tags the snapshot layout independently of the inner graph
// encoding's version; bump it when the option fields change.
const snapshotVersion = 1

// maxSnapshotIDs mirrors graph's decode-time dimension cap: an ID count
// from a hostile header must not drive the allocation below.
const maxSnapshotIDs = 1 << 27

// AppendSnapshot appends the snapshot encoding of c to buf and returns the
// extended slice: magic, version, the canonical graph encoding, the
// bandwidth budget, and the resolved per-vertex ID assignment.
func (c *Compiled) AppendSnapshot(buf []byte) []byte {
	var w [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		buf = append(buf, w[:]...)
	}
	word(snapshotMagic)
	word(snapshotVersion)
	buf = c.g.AppendBinary(buf)
	word(uint64(c.bandwidthBits))
	ids := c.topo.ids
	word(uint64(len(ids)))
	for _, id := range ids {
		word(uint64(id))
	}
	return buf
}

// SnapshotSize returns len(c.AppendSnapshot(nil)) without encoding.
func (c *Compiled) SnapshotSize() int {
	return 8 + 8 + c.g.BinarySize() + 8 + 8 + 8*len(c.topo.ids)
}

// DecodeSnapshot parses a snapshot and recompiles the core it describes.
// All input is untrusted: structural damage surfaces as a decode error and
// semantic damage (duplicate or out-of-range IDs) as a Compile error —
// never as a core that runs differently from the one that was persisted.
func DecodeSnapshot(data []byte) (*Compiled, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("network: snapshot header truncated (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint64(data[0:8]); magic != snapshotMagic {
		return nil, fmt.Errorf("network: bad snapshot magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint64(data[8:16]); version != snapshotVersion {
		return nil, fmt.Errorf("network: snapshot version %d, want %d", version, snapshotVersion)
	}
	g, rest, err := graph.DecodeBinary(data[16:])
	if err != nil {
		return nil, fmt.Errorf("network: snapshot graph: %w", err)
	}
	if len(rest) < 16 {
		return nil, fmt.Errorf("network: snapshot options truncated (%d bytes)", len(rest))
	}
	bw := binary.LittleEndian.Uint64(rest[0:8])
	count := binary.LittleEndian.Uint64(rest[8:16])
	if bw > 1<<31 {
		return nil, fmt.Errorf("network: implausible bandwidth budget %d", bw)
	}
	if count > maxSnapshotIDs {
		return nil, fmt.Errorf("network: implausible ID count %d", count)
	}
	if count != uint64(g.N()) {
		return nil, fmt.Errorf("network: snapshot has %d IDs for %d vertices", count, g.N())
	}
	rest = rest[16:]
	if uint64(len(rest)) < 8*count {
		return nil, fmt.Errorf("network: snapshot IDs truncated (%d bytes, need %d)", len(rest), 8*count)
	}
	ids := make([]ID, count)
	for i := range ids {
		ids[i] = ID(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	if extra := uint64(len(rest)) - 8*count; extra != 0 {
		return nil, fmt.Errorf("network: %d trailing bytes after snapshot", extra)
	}
	return Compile(g, CompileOptions{IDs: ids, BandwidthBits: int(bw)})
}
