package network_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

func snapshotCore(t *testing.T) *network.Compiled {
	t.Helper()
	rng := xrand.New(41)
	g := graph.ConnectedGNM(48, 120, rng)
	// Non-default options on purpose: an identity permutation and a zero
	// budget would round-trip even if the codec dropped them.
	ids := make([]network.ID, g.N())
	for v := range ids {
		ids[v] = int64(1000 + (v*7)%g.N())
	}
	perm := make(map[int64]bool)
	for v := range ids {
		for perm[ids[v]] {
			ids[v]++
		}
		perm[ids[v]] = true
	}
	c, err := network.Compile(g, network.CompileOptions{IDs: ids, BandwidthBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSnapshotRoundTripRuns is the acceptance pin for warm restarts: a
// program run on a DecodeSnapshot'd core must be byte-identical to the same
// run on the original core — outputs, stats, and the
// per-vertex detection results all included.
func TestSnapshotRoundTripRuns(t *testing.T) {
	orig := snapshotCore(t)
	enc := orig.AppendSnapshot(nil)
	if len(enc) != orig.SnapshotSize() {
		t.Fatalf("encoded %d bytes, SnapshotSize says %d", len(enc), orig.SnapshotSize())
	}
	dec, err := network.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Graph().Fingerprint() != orig.Graph().Fingerprint() {
		t.Fatal("decoded graph fingerprint differs")
	}
	if dec.BandwidthBits() != orig.BandwidthBits() {
		t.Fatalf("bandwidth %d, want %d", dec.BandwidthBits(), orig.BandwidthBits())
	}
	if dec.MemSize() != orig.MemSize() {
		t.Fatalf("MemSize %d, want %d (cache weights must survive restart)", dec.MemSize(), orig.MemSize())
	}
	t.Run(engineName, func(t *testing.T) {
		for seed := uint64(0); seed < 3; seed++ {
			want := runOn(t, orig, seed)
			got := runOn(t, dec, seed)
			assertResultsEqual(t, seed, want, got)
		}
	})
}

func runOn(t *testing.T, c *network.Compiled, seed uint64) *network.Result {
	t.Helper()
	inst, err := c.NewInstance(network.InstanceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	res, err := inst.RunProgram(&core.Tester{K: 6, Reps: 4}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The snapshot must be canonical: re-encoding a decoded core reproduces the
// original bytes, so the store's skip-if-unchanged persist pass can compare
// segment content by generation instead of re-reading disk.
func TestSnapshotReEncodeStable(t *testing.T) {
	orig := snapshotCore(t)
	enc := orig.AppendSnapshot(nil)
	dec, err := network.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, dec.AppendSnapshot(nil)) {
		t.Fatal("re-encoded snapshot differs from the original bytes")
	}
}

func TestDecodeSnapshotRejects(t *testing.T) {
	good := snapshotCore(t).AppendSnapshot(nil)
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xFF }), "magic"},
		{"version bump", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:16], 99)
		}), "version"},
		// Byte 40 is the first CSR offset (must be 0): any flip there is a
		// guaranteed invariant violation.
		{"graph bit-flip", corrupt(func(b []byte) { b[40] ^= 0x01 }), "graph"},
		{"truncated ids", good[:len(good)-8], "truncated"},
		{"trailing junk", append(append([]byte(nil), good...), 0xAB), "trailing"},
		{"duplicate ids", corrupt(func(b []byte) {
			// The last two u64 words are the IDs of the two highest
			// vertices; make them collide so Compile must refuse.
			copy(b[len(b)-8:], b[len(b)-16:len(b)-8])
		}), "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := network.DecodeSnapshot(tc.data)
			if err == nil {
				t.Fatalf("DecodeSnapshot accepted corrupt input (n=%d)", c.Graph().N())
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the decoder: it must never
// panic and never return a core whose re-encoding differs from a valid
// canonical form (a decoded core is always Compile-validated).
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	b := graph.Cycle(5)
	if c, err := network.Compile(b, network.CompileOptions{}); err == nil {
		f.Add(c.AppendSnapshot(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := network.DecodeSnapshot(data)
		if err != nil {
			return
		}
		re := c.AppendSnapshot(nil)
		if c2, err := network.DecodeSnapshot(re); err != nil {
			t.Fatalf("re-decode of accepted snapshot failed: %v", err)
		} else if c2.Graph().Fingerprint() != c.Graph().Fingerprint() {
			t.Fatal("re-decode changed the graph")
		}
	})
}
