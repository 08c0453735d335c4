package wire

import (
	"encoding/binary"
	"testing"
)

// Native fuzz targets: the decoders face arbitrary network bytes, so they
// must never panic and must be exact inverses of the encoders on anything
// they accept. `go test` runs the seed corpus, including the inputs under
// testdata/fuzz; `go test -fuzz=FuzzDecode` explores further.

// FuzzUvarint pins the shared varint decoder, and its one-load rank path,
// to encoding/binary: on a canonical varint both return what
// binary.Uvarint returns, both reject exactly the overlong encodings (more
// than one byte, the last one 0x00) that binary.Uvarint accepts, and
// whatever they accept re-encodes to the bytes they read.
func FuzzUvarint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x80, 0x00})
	f.Add([]byte{0xf7, 0x00, 0x00})
	f.Add([]byte{0xac, 0x02, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x00, 0x00})
	f.Add(binary.AppendUvarint(nil, 1<<55))
	f.Add(binary.AppendUvarint(nil, ^uint64(0)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		bv, bn := binary.Uvarint(data)
		overlong := bn > 1 && data[bn-1] == 0
		for name, dec := range map[string]func([]byte) (uint64, int){"uvarint": uvarint, "uvarintLong": uvarintLong} {
			v, n := dec(data)
			if bn <= 0 || overlong {
				if n > 0 {
					t.Fatalf("%s(% x) accepted (%d, %d bytes); binary.Uvarint gives (%d, %d)", name, data, v, n, bv, bn)
				}
				continue
			}
			if v != bv || n != bn {
				t.Fatalf("%s(% x) = (%d, %d), binary.Uvarint (%d, %d)", name, data, v, n, bv, bn)
			}
			if re := binary.AppendUvarint(nil, v); string(re) != string(data[:n]) {
				t.Fatalf("%s(% x) decoded %d, which encodes as % x", name, data, v, re)
			}
		}
	})
}

func FuzzDecodeCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{KindCheck})
	f.Add(EncodeCheck(&Check{U: 1, V: 2, Rank: 3, Seqs: [][]ID{{4, 5}, {6}}}))
	f.Add(EncodeRank(Rank{9}))
	f.Add([]byte{KindCheck, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(EncodeCheck(&Check{U: 7, V: 8, Rank: 9, Seqs: [][]ID{{}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheck(data)
		if err != nil {
			return
		}
		re := EncodeCheck(c)
		if string(re) != string(data) {
			t.Fatalf("decode/encode not inverse: % x vs % x", data, re)
		}
	})
}

// FuzzParseCheck cross-checks the zero-copy header parse against the
// full decoder: whenever ParseCheck accepts and Validate passes, the slow
// path must accept too and agree on the header; whenever Validate fails,
// the slow path must fail identically.
func FuzzParseCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{KindCheck})
	f.Add(EncodeCheck(&Check{U: 1, V: 2, Rank: 3, Seqs: [][]ID{{4, 5}, {6}}}))
	f.Add(EncodeCheck(&Check{U: 0, V: 0, Rank: 0, Seqs: nil}))
	f.Add([]byte{KindCheck, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ParseCheck(data)
		c, derr := DecodeCheck(data)
		if err != nil {
			if derr == nil {
				t.Fatalf("ParseCheck rejected (%v) what DecodeCheck accepted", err)
			}
			return
		}
		if verr := v.Validate(); verr != nil {
			if derr == nil {
				t.Fatalf("Validate rejected (%v) what DecodeCheck accepted", verr)
			}
			return
		}
		if derr != nil {
			t.Fatalf("DecodeCheck rejected (%v) a validated payload", derr)
		}
		if v.U != c.U || v.V != c.V || v.Rank != c.Rank || v.NumSeqs != len(c.Seqs) {
			t.Fatalf("header mismatch: view %+v vs check %+v", v, c)
		}
	})
}

func FuzzDecodeRank(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRank(Rank{0}))
	f.Add(EncodeRank(Rank{^uint64(0)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRank(data)
		if err != nil {
			return
		}
		// EncodeRank is canonical only for the exact payload length; accept
		// any decode but require the value to re-encode decodably.
		if _, err := DecodeRank(EncodeRank(r)); err != nil {
			t.Fatalf("re-encode of %v not decodable", r)
		}
	})
}

func FuzzDecodeProbe(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeProbe(Probe{Node: 77}))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProbe(data)
		if err != nil {
			return
		}
		re := EncodeProbe(p)
		if string(re) != string(data) {
			t.Fatalf("decode/encode not inverse: % x vs % x", data, re)
		}
	})
}
