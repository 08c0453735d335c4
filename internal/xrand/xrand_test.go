package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 100; i++ {
		if New(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds suspiciously similar")
	}
}

func TestStreamsIndependent(t *testing.T) {
	s1, s2 := Stream(7, 1), Stream(7, 2)
	equal := 0
	for i := 0; i < 200; i++ {
		if s1.Uint64() == s2.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("streams collided %d times", equal)
	}
	// Same (seed, stream) reproduces.
	r1, r2 := Stream(7, 5), Stream(7, 5)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("stream not reproducible")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-ish sanity: 10 buckets, 10000 draws, expect ~1000 each.
	r := New(99)
	buckets := make([]int, 10)
	const draws = 10000
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(10)]++
	}
	for b, c := range buckets {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d has %d draws (expected ~1000)", b, c)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %.4f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniform(t *testing.T) {
	// All 6 permutations of 3 elements should appear with similar frequency.
	r := New(8)
	counts := map[[3]int]int{}
	const draws = 6000
	for i := 0; i < draws; i++ {
		p := r.Perm(3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("only %d distinct permutations seen", len(counts))
	}
	for p, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("perm %v count %d (expected ~1000)", p, c)
		}
	}
}

func TestRankRange(t *testing.T) {
	r := New(4)
	for i := 0; i < 1000; i++ {
		v := r.Rank(100)
		if v < 1 || v > 100 {
			t.Fatalf("Rank(100) = %d", v)
		}
	}
}

func TestMix64Bijectivity(t *testing.T) {
	// SplitMix64's mixer is a bijection; sample for collisions.
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 20000; x++ {
		y := Mix64(x)
		if prev, dup := seen[y]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %d", prev, x, y)
		}
		seen[y] = x
	}
}

func TestSplitDiverges(t *testing.T) {
	r := New(11)
	a := r.Split()
	b := r.Split()
	eq := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			eq++
		}
	}
	if eq > 0 {
		t.Fatalf("split streams collided %d times", eq)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(21)
	trues := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < 4700 || trues > 5300 {
		t.Fatalf("Bool balance %d/%d", trues, draws)
	}
}

func TestUint64nQuick(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
