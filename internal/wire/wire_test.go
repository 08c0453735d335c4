package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// TestCheckHeaderLayout pins the byte layout of a Check: kind, rank, U, V,
// sequence count, then each sequence as its length and its IDs.
func TestCheckHeaderLayout(t *testing.T) {
	got := EncodeCheck(&Check{U: 1, V: 2, Rank: 300, Seqs: [][]ID{{4, 5}, {}}})
	want := []byte{KindCheck, 0xac, 0x02, 1, 2, 2, 2, 4, 5, 0}
	if string(got) != string(want) {
		t.Fatalf("EncodeCheck = % x, want % x", got, want)
	}
}

// TestCheckRank reads the rank off encoded checks and refuses everything
// that is not a check with a canonical rank varint.
func TestCheckRank(t *testing.T) {
	for _, r := range []uint64{0, 1, 127, 128, 1 << 32, math.MaxUint64} {
		p := EncodeCheck(&Check{U: 3, V: 4, Rank: r, Seqs: [][]ID{{3}}})
		got, ok := CheckRank(p)
		if !ok || got != r {
			t.Fatalf("CheckRank(rank %d) = %d, %v", r, got, ok)
		}
		// The rank alone is enough: a payload cut right after it still
		// yields the rank, which ParseCheck then refuses.
		if got, ok := CheckRank(p[:1+len(binary.AppendUvarint(nil, r))]); !ok || got != r {
			t.Fatalf("CheckRank(header cut after rank %d) = %d, %v", r, got, ok)
		}
	}
	for name, p := range map[string][]byte{
		"nil":           nil,
		"kind only":     {KindCheck},
		"rank kind":     EncodeRank(Rank{Rank: 5}),
		"probe kind":    EncodeProbe(Probe{Node: 5}),
		"truncated":     {KindCheck, 0x80},
		"overlong rank": {KindCheck, 0x85, 0x00, 1, 2, 0},
	} {
		if r, ok := CheckRank(p); ok {
			t.Errorf("%s: CheckRank(% x) = %d, want refusal", name, p, r)
		}
	}
}

// TestUvarintMatchesBinary drives the shared decoder and its one-load rank
// path through every varint length, with 0 to 9 bytes after it so that
// both the 64-bit load and the byte loop run, and checks them against
// binary.Uvarint. The overlong form of each value (its last group followed
// by a redundant zero group) must be refused.
func TestUvarintMatchesBinary(t *testing.T) {
	for name, dec := range map[string]func([]byte) (uint64, int){"uvarint": uvarint, "uvarintLong": uvarintLong} {
		t.Run(name, func(t *testing.T) { checkUvarintDecoder(t, dec) })
	}
}

func checkUvarintDecoder(t *testing.T, dec func([]byte) (uint64, int)) {
	var vals []uint64
	for b := 0; b < 64; b++ {
		vals = append(vals, 1<<b, 1<<b-1, 1<<b+1)
	}
	vals = append(vals, math.MaxUint64)
	pad := []byte{0xff, 0x80, 0, 1, 0x7f, 0xff, 0xff, 0x80, 0x81}
	for _, v := range vals {
		enc := binary.AppendUvarint(nil, v)
		over := append(append([]byte{}, enc...), 0)
		over[len(enc)-1] |= 0x80
		for extra := 0; extra <= len(pad); extra++ {
			p := append(append([]byte{}, enc...), pad[:extra]...)
			if got, n := dec(p); got != v || n != len(enc) {
				t.Fatalf("decode(% x) = %d, %d; want %d, %d", p, got, n, v, len(enc))
			}
			if len(over) > binary.MaxVarintLen64 {
				continue
			}
			p = append(append([]byte{}, over...), pad[:extra]...)
			if got, n := dec(p); n > 0 {
				t.Fatalf("overlong decode(% x) accepted as %d, %d", p, got, n)
			}
		}
	}
}

func TestRankRoundTrip(t *testing.T) {
	for _, r := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		p := EncodeRank(Rank{Rank: r})
		got, err := DecodeRank(p)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if got.Rank != r {
			t.Fatalf("rank %d decoded as %d", r, got.Rank)
		}
		if Kind(p) != KindRank {
			t.Fatalf("kind=%d", Kind(p))
		}
	}
}

func TestCheckRoundTrip(t *testing.T) {
	cases := []*Check{
		{U: 0, V: 1, Rank: 0, Seqs: nil},
		{U: 3, V: 99, Rank: 42, Seqs: [][]ID{{3}}},
		{U: 7, V: 8, Rank: 1 << 40, Seqs: [][]ID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}},
		{U: 1000000, V: 2000000, Rank: 5, Seqs: [][]ID{{}, {1}, {1, 2}}},
	}
	for _, c := range cases {
		p := EncodeCheck(c)
		got, err := DecodeCheck(p)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got.U != c.U || got.V != c.V || got.Rank != c.Rank {
			t.Fatalf("header mismatch: %+v vs %+v", got, c)
		}
		if len(got.Seqs) != len(c.Seqs) {
			t.Fatalf("seq count %d vs %d", len(got.Seqs), len(c.Seqs))
		}
		for i := range c.Seqs {
			if len(got.Seqs[i]) != len(c.Seqs[i]) {
				t.Fatalf("seq %d length mismatch", i)
			}
			for j := range c.Seqs[i] {
				if got.Seqs[i][j] != c.Seqs[i][j] {
					t.Fatalf("seq %d elem %d: %d vs %d", i, j, got.Seqs[i][j], c.Seqs[i][j])
				}
			}
		}
	}
}

func TestCheckRoundTripQuick(t *testing.T) {
	f := func(u, v uint32, rank uint64, raw [][]uint16) bool {
		c := &Check{U: ID(u), V: ID(v), Rank: rank}
		for _, rs := range raw {
			seq := make([]ID, len(rs))
			for i, x := range rs {
				seq[i] = ID(x)
			}
			c.Seqs = append(c.Seqs, seq)
		}
		got, err := DecodeCheck(EncodeCheck(c))
		if err != nil {
			return false
		}
		if got.U != c.U || got.V != c.V || got.Rank != c.Rank || len(got.Seqs) != len(c.Seqs) {
			return false
		}
		for i := range c.Seqs {
			if len(got.Seqs[i]) != len(c.Seqs[i]) {
				return false
			}
			for j := range c.Seqs[i] {
				if got.Seqs[i][j] != c.Seqs[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := EncodeCheck(&Check{U: 5, V: 9, Rank: 77, Seqs: [][]ID{{1, 2}, {3, 4}}})
	// Every strict prefix must fail (varints make most prefixes invalid).
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeCheck(good[:cut]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", cut)
		}
	}
	// Trailing garbage must fail.
	if _, err := DecodeCheck(append(append([]byte{}, good...), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Wrong kind tags.
	if _, err := DecodeCheck(EncodeRank(Rank{1})); err == nil {
		t.Fatal("rank payload decoded as check")
	}
	if _, err := DecodeRank(good); err == nil {
		t.Fatal("check payload decoded as rank")
	}
	// Absurd sequence count.
	bogus := []byte{KindCheck, 1, 2, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := DecodeCheck(bogus); err == nil {
		t.Fatal("absurd count accepted")
	}
	// An overlong varint in any field (0x8N 0x00 is a second encoding of N).
	for name, p := range map[string][]byte{
		"rank":     {KindCheck, 0x85, 0x00, 1, 2, 0},
		"u":        {KindCheck, 5, 0x81, 0x00, 2, 0},
		"count":    {KindCheck, 5, 1, 2, 0x80, 0x00},
		"seq len":  {KindCheck, 5, 1, 2, 1, 0x81, 0x00, 7},
		"sequence": {KindCheck, 5, 1, 2, 1, 1, 0x87, 0x00},
	} {
		if c, err := DecodeCheck(p); err == nil {
			t.Errorf("overlong %s accepted: % x decoded as %+v", name, p, c)
		}
	}
	if _, err := DecodeRank([]byte{KindRank, 0x80, 0x00}); err == nil {
		t.Error("overlong rank announcement accepted")
	}
}

func TestFakeIDsNeverEncoded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative ID")
		}
	}()
	EncodeCheck(&Check{U: 1, V: 2, Seqs: [][]ID{{-1}}})
}

// TestSizeIsLogarithmic: a check message with O_k(1) sequences of O(k) IDs
// drawn from [0, n) occupies O(k^2 log n) bits — verify the concrete growth
// is logarithmic in the ID magnitude, which is the CONGEST requirement.
func TestSizeIsLogarithmic(t *testing.T) {
	mk := func(idBase ID) int {
		seqs := [][]ID{{idBase, idBase + 1, idBase + 2}, {idBase + 3, idBase + 4, idBase + 5}}
		return 8 * len(EncodeCheck(&Check{U: idBase, V: idBase + 9, Rank: uint64(idBase), Seqs: seqs}))
	}
	small := mk(10)
	big := mk(1 << 40)
	if big > 8*small {
		t.Fatalf("size grew from %d to %d bits — not logarithmic", small, big)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	for _, id := range []ID{0, 1, 127, 128, 1 << 40} {
		p := EncodeProbe(Probe{Node: id})
		got, err := DecodeProbe(p)
		if err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if got.Node != id {
			t.Fatalf("id %d decoded as %d", id, got.Node)
		}
		if Kind(p) != KindProbe {
			t.Fatalf("kind=%d", Kind(p))
		}
	}
	// Cross-kind and corruption rejection.
	if _, err := DecodeProbe(EncodeRank(Rank{1})); !errors.Is(err, ErrKind) {
		t.Fatalf("rank decoded as probe: err = %v, want ErrKind", err)
	}
	if _, err := DecodeProbe(nil); err == nil || Kind(nil) != 0 {
		t.Fatal("empty probe accepted, or given a kind")
	}
	good := EncodeProbe(Probe{Node: 1 << 30})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeProbe(good[:cut]); err == nil {
			t.Fatalf("prefix %d accepted", cut)
		}
	}
	if _, err := DecodeProbe(append(append([]byte{}, good...), 1)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: err = %v, want ErrTrailing", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative probe ID must panic")
		}
	}()
	EncodeProbe(Probe{Node: -3})
}
