// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// The simulator and the experiment harness must be reproducible across
// platforms and Go releases, so we avoid math/rand's unspecified stream and
// implement SplitMix64 (for seeding and cheap streams) and PCG32 (for the
// main generator). Both are well-studied generators with public reference
// implementations; neither is cryptographic, which matches the paper's model
// (nodes draw O(log n) random bits per edge).
package xrand

import "math/bits"

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// A zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns the SplitMix64 output function applied to x. It is a strong
// 64-bit mixer, convenient for deriving independent seeds from (seed, index)
// pairs without constructing a generator.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RNG is a PCG-XSH-RR 64/32 generator (O'Neill 2014) extended with helpers
// for the ranges the algorithms need. It is deliberately tiny: 16 bytes of
// state, allocation-free, and safe to copy (copies diverge independently).
//
// RNG is not safe for concurrent use; give each goroutine its own stream via
// Split or Stream.
type RNG struct {
	state uint64
	inc   uint64 // always odd
}

// New returns an RNG seeded from seed using SplitMix64, following the PCG
// reference seeding procedure.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed reinitializes r in place; afterwards r produces exactly the stream of
// New(seed). It allocates nothing, so long-lived simulations can reuse one
// RNG value per node across many runs (see internal/network).
func (r *RNG) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	r.state = 0
	r.inc = (sm.Uint64() << 1) | 1
	r.Uint32()
	r.state += sm.Uint64()
	r.Uint32()
}

// streamSeed derives the scalar seed of the (seed, stream) coin stream.
func streamSeed(seed, stream uint64) uint64 {
	return Mix64(seed) ^ Mix64(stream*0x9e3779b97f4a7c15+0x632be59bd9b4e019)
}

// Stream returns an RNG deterministically derived from (seed, stream). Two
// distinct stream indices yield statistically independent generators, which
// is how the simulator gives every node its own private coins.
func Stream(seed, stream uint64) *RNG {
	return New(streamSeed(seed, stream))
}

// SeedStream reinitializes r in place to the exact stream that
// Stream(seed, stream) returns, without allocating.
func (r *RNG) SeedStream(seed, stream uint64) {
	r.Seed(streamSeed(seed, stream))
}

// Split derives a fresh, independent RNG from r, advancing r.
func (r *RNG) Split() *RNG {
	return New(uint64(r.Uint32())<<32 | uint64(r.Uint32()))
}

// Uint32 returns the next 32 uniformly random bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded generation.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire rejection: multiply-shift with a low-bits rejection test.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random boolean.
func (r *RNG) Bool() bool {
	return r.Uint32()&1 == 1
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Rank draws a rank in [1, max] inclusive, matching the paper's Phase-1 rank
// draw r(e) ∈ [1, m²] (the tester uses [1, n⁴], which contains [1, m²]
// because m ≤ n², saturated at MaxUint64 for n ≥ 2^16).
func (r *RNG) Rank(max uint64) uint64 {
	return 1 + r.Uint64n(max)
}
