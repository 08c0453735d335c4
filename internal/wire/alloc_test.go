package wire

import "testing"

// Allocation-regression tests: the hot-path codec tier must stay
// allocation-free once its caller-owned buffers are warm. These ceilings
// lock in the zero-allocation message path; a change that reintroduces
// per-message churn fails here before it shows up in benchmarks.

// maxPhase2Check builds a maximum-realistic Phase-2 message for k=9: the
// Lemma-3 bound at the widest round is (k-t+1)^(t-1) with t = ⌊k/2⌋ = 4,
// i.e. 6³ = 216 sequences of length 4. Using the full bound keeps the test
// honest for the largest message any pruned run can emit.
func maxPhase2Check() *SeqArena {
	var a SeqArena
	const k, t = 9, 4
	seqs := 216 // (9-4+1)^(4-1)
	for i := 0; i < seqs; i++ {
		a.Append([]ID{ID(i), ID(i + 1000), ID(i + 2000), ID(i + 3000)})
	}
	return &a
}

func TestAppendCheckArenaAllocFree(t *testing.T) {
	src := maxPhase2Check()
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendCheckArena(buf[:0], 12345, 67890, 1<<40, src)
	})
	if allocs > 0 {
		t.Fatalf("AppendCheckArena allocates %.1f times per call; want 0", allocs)
	}
}

func TestParseAndValidateAllocFree(t *testing.T) {
	src := maxPhase2Check()
	payload := AppendCheckArena(nil, 5, 9, 77, src)
	allocs := testing.AllocsPerRun(200, func() {
		v, err := ParseCheck(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("ParseCheck+Validate allocates %.1f times per call; want 0", allocs)
	}
}

// TestCodecTiersAgree pins the two encoders to the same wire format: the
// arena encoder must produce byte-identical output to EncodeCheck.
func TestCodecTiersAgree(t *testing.T) {
	c := &Check{U: 3, V: 99, Rank: 42, Seqs: [][]ID{{3, 7}, {}, {1, 2, 3}}}
	var a SeqArena
	for _, s := range c.Seqs {
		a.Append(s)
	}
	legacy := EncodeCheck(c)
	arena := AppendCheckArena(nil, c.U, c.V, c.Rank, &a)
	if string(legacy) != string(arena) {
		t.Fatalf("encoders disagree:\n%x\n%x", legacy, arena)
	}
}
