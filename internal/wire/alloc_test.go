package wire

import (
	"errors"
	"testing"
)

// Allocation-regression tests: the hot-path codec tier must stay
// allocation-free once its caller-owned buffers are warm, on honest and on
// damaged payloads alike. These ceilings lock in the zero-allocation
// message path; a change that reintroduces per-message churn fails here
// before it shows up in benchmarks.

// maxPhase2Check builds a maximum-realistic Phase-2 message for k=9: the
// Lemma-3 bound at the widest round is (k-t+1)^(t-1) with t = ⌊k/2⌋ = 4,
// i.e. 6³ = 216 sequences of length 4. Using the full bound keeps the test
// honest for the largest message any pruned run can emit.
func maxPhase2Check() *SeqArena {
	var a SeqArena
	const k, t = 9, 4
	seqs := 216 // (9-4+1)^(4-1)
	for i := 0; i < seqs; i++ {
		a.AppendWithTail([]ID{ID(i), ID(i + 1000), ID(i + 2000)}, ID(i+3000))
	}
	return &a
}

// TestAppendCheckArenaAllocFree refills a warm arena (Reset,
// AppendWithTail) and encodes it with both check encoders and a rank into
// a warm buffer.
func TestAppendCheckArenaAllocFree(t *testing.T) {
	src := maxPhase2Check()
	var a SeqArena
	c := &Check{U: 12345, V: 67890, Rank: 1 << 40, Seqs: make([][]ID, src.Len())}
	for i := range c.Seqs {
		c.Seqs[i] = src.Seq(i)
	}
	buf := make([]byte, 0, 8192)
	fill := func() {
		a.Reset()
		for i := 0; i < src.Len(); i++ {
			seq := src.Seq(i)
			a.AppendWithTail(seq[:len(seq)-1], seq[len(seq)-1])
		}
		buf = AppendCheckArena(buf[:0], c.U, c.V, c.Rank, &a)
		buf = AppendCheck(buf, c)
		buf = AppendRank(buf, Rank{Rank: c.Rank})
	}
	fill()
	allocs := testing.AllocsPerRun(200, fill)
	if allocs > 0 {
		t.Fatalf("refilling and encoding allocates %.1f times per call; want 0", allocs)
	}
	enc := EncodeCheck(c)
	if want := string(enc) + string(enc) + string(EncodeRank(Rank{Rank: c.Rank})); string(buf) != want {
		t.Fatal("the refilled arena does not encode the check")
	}
}

// TestParseAndValidateAllocFree parses and validates the widest honest
// check, decodes its sequences into a warm buffer, and refuses damaged
// payloads, all without allocating. DecodeRank and CheckRank read the same
// payloads.
func TestParseAndValidateAllocFree(t *testing.T) {
	src := maxPhase2Check()
	payload := AppendCheckArena(nil, 5, 9, 77, src)
	// Damaged checks, each with the sentinel that refuses it: another
	// kind, a truncated header, a truncated body, and a trailing byte.
	damaged := []struct {
		p   []byte
		err error
	}{
		{EncodeRank(Rank{Rank: 7}), ErrKind},
		{EncodeProbe(Probe{Node: 7}), ErrKind},
		{[]byte{0xFF, 1, 2, 3, 0}, ErrKind},
		{payload[:1], ErrTruncated},
		{payload[:4], ErrTruncated},
		{payload[:len(payload)-1], ErrTruncated},
		{append(payload[:len(payload):len(payload)], 0), ErrTrailing},
	}
	for _, d := range damaged {
		v, err := ParseCheck(d.p)
		if err == nil {
			err = v.Validate()
		}
		if !errors.Is(err, d.err) {
			t.Fatalf("% x: ParseCheck+Validate = %v, want %v", d.p, err, d.err)
		}
	}
	if _, err := DecodeRank(payload); !errors.Is(err, ErrKind) {
		t.Fatalf("DecodeRank of a check = %v, want ErrKind", err)
	}
	if _, err := DecodeRank(append(EncodeRank(Rank{Rank: 3}), 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("DecodeRank of a rank with a trailing byte = %v, want ErrTrailing", err)
	}
	ranks := [][]byte{
		EncodeRank(Rank{Rank: 1 << 40}), payload, {KindRank}, {KindRank, 0x80, 0x00},
		append(EncodeRank(Rank{Rank: 3}), 0),
	}
	for _, d := range damaged {
		ranks = append(ranks, d.p)
	}
	dst := make([]ID, 0, 4*src.Len())
	allocs := testing.AllocsPerRun(200, func() {
		v, err := ParseCheck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		it := v.Iter()
		dst = dst[:0]
		for ok := true; ok; {
			dst, ok = it.Next(dst)
		}
		for _, d := range damaged {
			if v, err := ParseCheck(d.p); err == nil {
				_ = v.Validate()
			}
		}
		for _, p := range ranks {
			_, _ = DecodeRank(p)
			_, _ = CheckRank(p)
		}
	})
	if allocs > 0 {
		t.Fatalf("parsing, validating and refusing allocates %.1f times per call; want 0", allocs)
	}
	if len(dst) != 4*src.Len() {
		t.Fatalf("decoded %d IDs, want %d", len(dst), 4*src.Len())
	}
}

// TestCodecTiersAgree pins the two encoders to the same wire format: the
// arena encoder must produce byte-identical output to EncodeCheck.
func TestCodecTiersAgree(t *testing.T) {
	c := &Check{U: 3, V: 99, Rank: 42, Seqs: [][]ID{{3, 7}, {}, {1, 2, 3}}}
	var a SeqArena
	for _, s := range c.Seqs {
		// AppendWithTail cannot store the empty sequence.
		a.Spans = append(a.Spans, Span{Off: int32(len(a.IDs)), Len: int32(len(s))})
		a.IDs = append(a.IDs, s...)
	}
	legacy := EncodeCheck(c)
	arena := AppendCheckArena(nil, c.U, c.V, c.Rank, &a)
	if string(legacy) != string(arena) {
		t.Fatalf("encoders disagree:\n%x\n%x", legacy, arena)
	}
}
