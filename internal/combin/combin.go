// Package combin provides the combinatorial machinery behind Algorithm 1's
// pruning rule and its connection to representative families.
//
// The core object is the greedy selection of §3.3 of the paper: given a
// collection R of ID sequences (each of length t−1) and the parameter
// q = k−t, keep a sequence L iff some q-subset X of the known IDs (including
// q "fake" IDs) with X∩L = ∅ has not been covered by a previously kept
// sequence; keeping L covers every such X. The paper implements this by
// materializing the collection 𝒳 of all q-subsets, which is exponential in
// |I|; Representatives implements the identical selection with a bounded
// hitting-set search that never materializes 𝒳, and RepresentativesBrute
// keeps the paper-literal version for cross-validation.
//
// The same greedy computes Erdős–Hajnal–Moon q-representative subfamilies
// (the lemma the paper cites in §1.2), exposed here as well.
package combin

import (
	"math/bits"
	"sort"
)

// Binomial returns C(n, k), saturating at the maximum uint64 on overflow.
// Intermediate products use 128-bit arithmetic; each step divides exactly
// because the running value is itself a binomial coefficient C(n-k+i, i).
func Binomial(n, k int) uint64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var res uint64 = 1
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(res, uint64(n-k+i))
		if hi >= uint64(i) {
			return ^uint64(0) // exact quotient would exceed 64 bits
		}
		res, _ = bits.Div64(hi, lo, uint64(i))
	}
	return res
}

// Subsets calls fn with every k-subset of [0, n), in lexicographic order.
// The slice passed to fn is reused; fn must copy it to retain it. fn may
// return false to stop early; Subsets reports whether it ran to completion.
func Subsets(n, k int, fn func(sub []int) bool) bool {
	if k < 0 || k > n {
		return true
	}
	sub := make([]int, k)
	for i := range sub {
		sub[i] = i
	}
	for {
		if !fn(sub) {
			return false
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && sub[i] == n-k+i {
			i--
		}
		if i < 0 {
			return true
		}
		sub[i]++
		for j := i + 1; j < k; j++ {
			sub[j] = sub[j-1] + 1
		}
	}
}

// contains reports whether slice holds v. Sequences in this codebase have at
// most ⌊k/2⌋ ≈ 5 entries, so a linear scan beats any set structure.
func contains(seq []int64, v int64) bool {
	for _, x := range seq {
		if x == v {
			return true
		}
	}
	return false
}

// intersects reports whether a and b share an element.
func intersects(a, b []int64) bool {
	for _, x := range a {
		if contains(b, x) {
			return true
		}
	}
	return false
}

// RepScratch holds the reusable working storage of the greedy selection: the
// kept-list view and the chosen-ID stack of the witness search. A node keeps
// one per check so that repeated selections allocate nothing.
type RepScratch struct {
	kept   [][]int64
	chosen []int64
}

// Prealloc sizes the scratch for witness budget q and up to keptCap kept
// lists, so subsequent selections perform no allocations at all.
func (s *RepScratch) Prealloc(q, keptCap int) {
	if q > 0 && cap(s.chosen) < q {
		s.chosen = make([]int64, 0, q)
	}
	if cap(s.kept) < keptCap {
		s.kept = make([][]int64, 0, keptCap)
	}
}

// MaxCalibratedK is the largest cycle length whose representative-selection
// cost is covered by the committed benchmarks (BenchmarkRepresentatives)
// and the experiment grids. The witness search in existsWitness is a
// depth-≤q branching with q = k−t up to k−2: polynomial for the paper's
// regime (Lemma 3 bounds the kept family by (q+1)^(t−1)) but exponential in
// q in the worst case. That worst case is real: k=11 on dense graphs takes
// minutes per trial (hit while re-measuring prealloc envelopes; that case
// was cut from the test grid). Raising an experiment or sweep range past
// this constant should be preceded by profiling — sweep.Spec.Warnings
// surfaces the overshoot to cmd/sweep and the serving layer.
const MaxCalibratedK = 9

// Representatives performs the greedy selection of Algorithm 1 (lines 16–23)
// over lists, with witness-set size q, and returns the indices of the kept
// lists in processing order.
//
// Selection semantics (equivalent to the paper's 𝒳-removal formulation): a
// list L is kept iff there exists a q-subset X of I = (all IDs appearing in
// lists) ∪ (q fake IDs) such that X∩L = ∅ and X intersects every previously
// kept list.
//
// Because the q fake IDs intersect nothing and avoid everything, such an X
// exists iff at most q real IDs suffice to hit every kept list while
// avoiding L. That is decided by a depth-≤q branching over the ≤|L'| choices
// of an element of some unhit kept list L'. With |kept| bounded by Lemma 3
// at (q+1)^(t−1), the search is O_k(1) per list.
func Representatives(lists [][]int64, q int) []int {
	var s RepScratch
	return AppendRepresentatives(nil, lists, q, &s)
}

// AppendRepresentatives is Representatives with caller-owned storage: kept
// indices are appended to dst and the search works entirely inside s, so a
// caller that reuses both performs no per-call allocations.
func AppendRepresentatives(dst []int, lists [][]int64, q int, s *RepScratch) []int {
	if q < 0 {
		q = 0
	}
	if cap(s.chosen) < q {
		s.chosen = make([]int64, 0, q)
	}
	s.kept = s.kept[:0]
	for i, l := range lists {
		if s.existsWitness(l, q) {
			s.kept = append(s.kept, l)
			dst = append(dst, i)
		}
	}
	return dst
}

// existsWitness reports whether some set of at most budget real IDs hits
// every kept list while avoiding every ID in avoid.
func (s *RepScratch) existsWitness(avoid []int64, budget int) bool {
	return s.witnessRec(avoid, s.chosen[:0], budget)
}

// witnessRec branches over candidate hitters; chosen is a stack backed by
// s.chosen (cap ≥ budget at the top call, so appends never reallocate).
func (s *RepScratch) witnessRec(avoid, chosen []int64, budget int) bool {
	// Find the first kept list not hit by chosen.
	var unhit []int64
	for _, l := range s.kept {
		if !intersects(l, chosen) {
			unhit = l
			break
		}
	}
	if unhit == nil {
		return true // everything hit; fakes fill the remaining slots
	}
	if budget == 0 {
		return false
	}
	for _, y := range unhit {
		if contains(avoid, y) {
			continue // X must be disjoint from the candidate list
		}
		// y ∉ chosen holds automatically: unhit ∩ chosen = ∅.
		if s.witnessRec(avoid, append(chosen, y), budget-1) {
			return true
		}
	}
	return false
}

// RepresentativesBrute is the paper-literal implementation of lines 14–23:
// it materializes I (real IDs plus q fakes), the collection 𝒳 of all
// q-subsets of I, and removes covered subsets as lists are kept. It is
// exponential in |I| and exists only to cross-validate Representatives in
// tests and to document the original formulation.
func RepresentativesBrute(lists [][]int64, q int) []int {
	// I ← all IDs in lists, sorted for determinism, plus q fake IDs.
	idSet := make(map[int64]struct{})
	for _, l := range lists {
		for _, id := range l {
			idSet[id] = struct{}{}
		}
	}
	universe := make([]int64, 0, len(idSet)+q)
	for id := range idSet {
		universe = append(universe, id)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	for f := 1; f <= q; f++ {
		universe = append(universe, int64(-f)) // fake IDs −1..−q
	}
	// 𝒳 ← all q-subsets of I, as index tuples into universe.
	var pool [][]int64
	Subsets(len(universe), q, func(sub []int) bool {
		x := make([]int64, q)
		for i, idx := range sub {
			x[i] = universe[idx]
		}
		pool = append(pool, x)
		return true
	})
	alive := make([]bool, len(pool))
	for i := range alive {
		alive[i] = true
	}
	var keptIdx []int
	for i, l := range lists {
		found := false
		for j, x := range pool {
			if alive[j] && !intersects(x, l) {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		keptIdx = append(keptIdx, i)
		for j, x := range pool {
			if alive[j] && !intersects(x, l) {
				alive[j] = false
			}
		}
	}
	return keptIdx
}

// IsRepresentative checks the Erdős–Hajnal–Moon property on a small,
// explicit universe: for every subset C of universe with |C| ≤ q, if some
// member of family avoids C then some member of the sub-family (given by
// keptIdx) avoids C. Exponential in |universe|; test-support only.
func IsRepresentative(family [][]int64, keptIdx []int, universe []int64, q int) bool {
	kept := make([][]int64, len(keptIdx))
	for i, idx := range keptIdx {
		kept[i] = family[idx]
	}
	for size := 0; size <= q; size++ {
		ok := Subsets(len(universe), size, func(sub []int) bool {
			c := make([]int64, size)
			for i, idx := range sub {
				c[i] = universe[idx]
			}
			var someAvoids bool
			for _, l := range family {
				if !intersects(l, c) {
					someAvoids = true
					break
				}
			}
			if !someAvoids {
				return true
			}
			for _, l := range kept {
				if !intersects(l, c) {
					return true
				}
			}
			return false // family had an avoider but kept did not
		})
		if !ok {
			return false
		}
	}
	return true
}

// EHMBound returns the Erdős–Hajnal–Moon cardinality bound C(p+q, p) on a
// q-representative subfamily of p-sets.
func EHMBound(p, q int) uint64 { return Binomial(p+q, p) }

// PaperMessageBound returns the paper's Lemma 3 bound on the number of
// sequences a node sends at round t of a Ck check: (k−t+1)^(t−1).
func PaperMessageBound(k, t int) uint64 {
	base := uint64(k - t + 1)
	var res uint64 = 1
	for i := 0; i < t-1; i++ {
		hi, lo := bits.Mul64(res, base)
		if hi != 0 {
			return ^uint64(0)
		}
		res = lo
	}
	return res
}
