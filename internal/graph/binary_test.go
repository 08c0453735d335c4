package graph

import (
	"encoding/binary"
	"strings"
	"testing"

	"cycledetect/internal/xrand"
)

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	empty := NewBuilder(0).Build()
	single := NewBuilder(1).Build()
	cyc := NewBuilder(5)
	cyc.AddCycle(0, 1, 2, 3, 4)
	dense := NewBuilder(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			dense.AddEdge(u, v)
		}
	}
	isolated := NewBuilder(4)
	isolated.AddEdge(0, 2)
	return map[string]*Graph{
		"empty":    empty,
		"single":   single,
		"cycle5":   cyc.Build(),
		"k6":       dense.Build(),
		"isolated": isolated.Build(),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			enc := g.AppendBinary(nil)
			if len(enc) != g.BinarySize() {
				t.Fatalf("encoded %d bytes, BinarySize says %d", len(enc), g.BinarySize())
			}
			dec, rest, err := DecodeBinary(enc)
			if err != nil {
				t.Fatalf("DecodeBinary: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("DecodeBinary left %d trailing bytes", len(rest))
			}
			if !Equal(g, dec) {
				t.Fatalf("decoded graph differs: n=%d %v vs n=%d %v", g.N(), g.Edges(), dec.N(), dec.Edges())
			}
			if g.Fingerprint() != dec.Fingerprint() {
				t.Fatalf("canonical fingerprint changed across round-trip")
			}
		})
	}
}

// The encoding must be canonical: edge insertion order cannot leak into the
// bytes, or the snapshot store would rewrite unchanged segments.
func TestBinaryCanonical(t *testing.T) {
	a := NewBuilder(4)
	a.AddEdge(0, 1)
	a.AddEdge(2, 3)
	a.AddEdge(1, 2)
	b := NewBuilder(4)
	b.AddEdge(1, 2)
	b.AddEdge(0, 1)
	b.AddEdge(3, 2)
	ea, eb := a.Build().AppendBinary(nil), b.Build().AppendBinary(nil)
	if string(ea) != string(eb) {
		t.Fatalf("same edge set encoded to different bytes")
	}
}

func TestBinaryTrailingBytes(t *testing.T) {
	g := testGraphs(t)["cycle5"]
	tail := []byte("trailer")
	enc := append(g.AppendBinary(nil), tail...)
	dec, rest, err := DecodeBinary(enc)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if string(rest) != string(tail) {
		t.Fatalf("trailing bytes = %q, want %q", rest, tail)
	}
	if !Equal(g, dec) {
		t.Fatalf("decoded graph differs with trailing bytes present")
	}
}

func TestDecodeBinaryRejects(t *testing.T) {
	cyc := testGraphsOne(t)
	good := cyc.AppendBinary(nil)

	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty input", nil, "truncated"},
		{"short header", good[:16], "truncated"},
		{"truncated body", good[:len(good)-4], "truncated"},
		{"version bump", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[0:8], binaryVersion+1)
			return b
		}), "version"},
		{"implausible n", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		}), "implausible"},
		{"implausible m", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], 1<<40)
			return b
		}), "implausible"},
		{"nonzero first offset", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:28], 1)
			return b
		}), "start at 0"},
		{"neighbor out of range", corrupt(func(b []byte) []byte {
			// First adjacency word lives after the 5+1 offsets.
			binary.LittleEndian.PutUint32(b[24+4*6:], 99)
			return b
		}), "out of range"},
		{"self-loop", corrupt(func(b []byte) []byte {
			// Vertex 0's neighbors in cycle5 are {1, 4}; make the first 0.
			binary.LittleEndian.PutUint32(b[24+4*6:], 0)
			return b
		}), "self-loop"},
		{"unsorted neighbors", corrupt(func(b []byte) []byte {
			// Swap vertex 0's two neighbors (1, 4) -> (4, 1).
			p := 24 + 4*6
			binary.LittleEndian.PutUint32(b[p:], 4)
			binary.LittleEndian.PutUint32(b[p+4:], 1)
			return b
		}), "sorted"},
		{"asymmetric adjacency", corrupt(func(b []byte) []byte {
			// Vertex 0 lists {1, 4}; retarget 4 -> 3 (still sorted, no
			// self-loop) so 0 lists 3 but 3 does not list 0.
			binary.LittleEndian.PutUint32(b[24+4*6+4:], 3)
			return b
		}), "asymmetric"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _, err := DecodeBinary(tc.data)
			if err == nil {
				t.Fatalf("DecodeBinary accepted corrupt input, got graph n=%d m=%d", g.N(), g.M())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func testGraphsOne(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	b.AddCycle(0, 1, 2, 3, 4)
	return b.Build()
}

// Structural equality and the canonical fingerprint must agree: the
// fingerprint keys caches and snapshot manifests in place of an edge-set
// comparison, so a graph pair may not match under one and differ under the
// other.
func TestFingerprintsAgree(t *testing.T) {
	gs := testGraphs(t)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	for _, a := range names {
		for _, b := range names {
			structEq := Equal(gs[a], gs[b])
			canonEq := gs[a].Fingerprint() == gs[b].Fingerprint()
			if structEq != canonEq {
				t.Fatalf("Equal and Fingerprint disagree for (%s,%s): Equal=%v fingerprint=%v",
					a, b, structEq, canonEq)
			}
		}
	}
}

// TestFingerprintPinned fixes the canonical fingerprint's digest. The
// snapshot store names its manifest entries and segment files by it, and
// the serving layer keys explicit graphs by it, so a change in how the
// words are hashed must not change the hex string. The G(64, 256) graph
// spans more than one 4 KB hashing buffer. The constants were computed by
// the word-at-a-time implementation.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"cycle5", Cycle(5), "ae2e9d6566ebb270d06f91536aeba49127f827ab63c33e7c56dc830005a8eb8c"},
		{"gnm64_256", ConnectedGNM(64, 256, xrand.New(1)), "12aa8e17ea06959d42b72b51344260596f93f93b63d184ac7fac77a67743506e"},
	} {
		if got := tc.g.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %s, want %s", tc.name, got, tc.want)
		}
	}
}
