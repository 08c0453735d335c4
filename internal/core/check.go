// Package core implements the paper's contribution: the two-phase
// distributed property-testing algorithm for Ck-freeness (Theorem 1).
//
// The deterministic heart is Algorithm 1 ("DetectCk"), a pruned
// append-and-forward search for a k-cycle through a fixed candidate edge
// e = {u,v}, implemented by checkState in this file. Two network.Programs
// wrap it:
//
//   - EdgeDetector (detector.go): Phase 2 alone, for a known edge — the
//     deterministic detector of §3.2–3.4;
//   - Tester (tester.go): the full randomized tester — Phase 1 rank
//     selection, rank-prioritized concurrent checks, and the ⌈(e²/ε)·ln 3⌉
//     repetitions that give Theorem 1's guarantee.
//
// Algorithm 1's pruned forwarding is the one forwarding policy. The §3.2
// strawman that forwards every received sequence (ModeNaive) lives only on
// EdgeDetector, as the ablation baseline of the experiments; the Tester has
// no way to run it.
package core

import (
	"cycledetect/internal/combin"
	"cycledetect/internal/wire"
)

// ID is a node identifier.
type ID = wire.ID

// Mode selects an EdgeDetector's Phase-2 forwarding policy; a Tester always
// runs ModePruned.
type Mode int

const (
	// ModePruned is Algorithm 1 as published: forward only a representative
	// subset of sequences (lines 16–24), at most (k−t+1)^(t−1) per message.
	ModePruned Mode = iota
	// ModeNaive forwards every received sequence (S ← R), the strawman of
	// §3.2 whose message size explodes with vertex-connectivity between the
	// candidate edge and the rest of the graph. Only EdgeDetector runs it,
	// as the ablation baseline (E8, E11).
	ModeNaive
)

// sigOf folds a sequence into a 64-bit signature with one bit per ID class
// (id mod 64). Two sequences with non-intersecting signatures are certainly
// disjoint, so the quadratic pair scans of detect resolve most pairs with a
// single AND; only signature collisions fall back to the exact scan.
func sigOf(seq []ID) uint64 {
	var sig uint64
	for _, id := range seq {
		sig |= 1 << (uint64(id) & 63)
	}
	return sig
}

// checkState is the per-node state of one Ck check for a candidate edge.
// It is deliberately memoryless across rounds beyond the previous round's
// receipts — exactly the information Algorithm 1 consumes — which is what
// lets the full tester switch a node onto a lower-rank check mid-run.
//
// All sequence storage is span-based: received and sent sequences live in
// flat reusable arenas, and every scratch slice survives reset, so a node
// that runs many repetitions reaches a steady state where rounds allocate
// nothing.
type checkState struct {
	k     int
	halfK int // ⌊k/2⌋, number of Phase-2 rounds
	u, v  ID  // candidate edge endpoints, u < v
	rank  uint64
	myid  ID
	mode  Mode

	// seeder is true iff this node must seed its own ID at Phase-2 round 1:
	// it is an endpoint of the candidate edge AND that edge really exists
	// (the other endpoint is a neighbor). The existence check matters only
	// for the standalone detector, whose caller may name a non-adjacent
	// pair; Phase 1 always selects real edges.
	seeder bool

	recv      wire.SeqArena // sequences received in round recvRound for this check
	recvSigs  []uint64      // signature per recv sequence
	recvRound int           // 0 if none
	sent      wire.SeqArena // S sent at round sentRound (IDs appended), for even-k detection
	sentSigs  []uint64
	sentRound int

	// Round-local scratch, reused across rounds and repetitions.
	clean   []int32 // cleanReceived output: indices into recv
	views   [][]ID  // arena-backed views handed to the pruner
	keptIdx []int
	rep     combin.RepScratch

	// witBuf backs the witness detect returns, reused across runs of a
	// reusable node so steady-state rejects allocate nothing here. The
	// returned slice is valid until this node's next detection; consumers
	// that outlive the run must copy (core.Summarize does).
	witBuf []ID
}

// prealloc sizes the reusable buffers for a node of the given degree so that
// a typical repetition performs no growth reallocations: received volume
// scales with fan-in (deg neighbors × pruned per-message sequence count),
// sent volume with the per-message count alone. Everything is carved from a
// few typed slabs, so a node costs a constant number of setup allocations
// regardless of its buffer sizes; undersized buffers just grow, they are
// never a correctness concern — and with reusable Networks
// (internal/network) any growth happens once per network lifetime, not once
// per run.
//
// Only the Tester reserves up front. Every Tester node runs a check in every
// repetition (its minimum-rank incident edge, or a lower-rank one it defects
// to), so each node needs these buffers and a reservation replaces a chain
// of growth reallocations; dropping it raised TesterByK/k=9 from ~4.0k to
// ~14.7k allocs/op. The EdgeDetector runs a single check for ⌊k/2⌋ rounds:
// only nodes within ⌊k/2⌋ hops of the candidate edge ever hold a sequence,
// so its nodes start with empty arenas, grow them by append inside that
// ball, and keep the capacity across Reset. A reservation there would cost
// every node of the graph the worst case (~8 KB per k=7 node at degree 8)
// for the few that send (TestDetectorFootprint pins the difference).
//
// Sizing was re-measured for the degree distributions the sweep scheduler
// generates (TestPreallocCoversSweepDensities drives the measurement;
// 3-repetition Tester, high-water arena lengths over all nodes):
//
//	density   k   peak recv spans   old 4·deg+16 cap   over
//	G(n,4n)   5            12             72           0.20×
//	G(n,4n)   9           152             72           2.28×
//	G(n,8n)   7           128            124           1.26×
//	G(n,8n)   9           698            132           5.62×
//	G(n,16n)  9          1413            180           7.87×
//
// The demand grows with k (round-t messages carry up to (k−t+1)^(t−1)
// sequences, Lemma 3) and super-linearly with density (denser graphs carry
// more distinct sequences), so the reservation is now
// k-aware: 3(k−3)·deg for receipts and 6(k−3) sent spans. Re-measured
// utilization with these caps: G(n,4n) ≤ 0.80 for k ≤ 9, G(n,8n) ≤ 0.56 at
// k = 7, K_{12,12} 0.92 at k = 8 — all covered outright. The densest k = 9
// sweeps still overflow (1.6× at 8n, 1.9× at 16n) and grow their arenas
// once during the first repetition — reserving for their worst case would
// cost ~80 KB per node on graphs where most nodes never see that traffic,
// the wrong trade at million-node scale.
//
// cleanReceived filters the receipts into clean, so clean (4-byte indices)
// is reserved like the receipts, and the witness buffer's k IDs come from
// the ID slab. Both are needed for a warm instance to allocate nothing at
// every k: new seeds keep setting new high-water marks and bringing nodes
// their first detection (TestTesterWarmAllocFree).
func (cs *checkState) prealloc(k, deg int) {
	halfK := k / 2
	recvSpans := preallocRecvSpans(k, deg)
	sentSpans := preallocSentSpans(k)
	scratch := 2*deg + 16
	recvIDs := recvSpans * halfK
	sentIDs := sentSpans * (halfK + 1)

	ids := make([]ID, 0, recvIDs+sentIDs+k)
	cs.recv.IDs = ids[0:0:recvIDs]
	cs.sent.IDs = ids[recvIDs : recvIDs : recvIDs+sentIDs]
	cs.witBuf = ids[recvIDs+sentIDs : recvIDs+sentIDs : recvIDs+sentIDs+k]
	spans := make([]wire.Span, 0, recvSpans+sentSpans)
	cs.recv.Spans = spans[0:0:recvSpans]
	cs.sent.Spans = spans[recvSpans : recvSpans : recvSpans+sentSpans]
	sigs := make([]uint64, 0, recvSpans+sentSpans)
	cs.recvSigs = sigs[0:0:recvSpans]
	cs.sentSigs = sigs[recvSpans : recvSpans : recvSpans+sentSpans]
	cs.clean = make([]int32, 0, recvSpans)
	cs.views = make([][]ID, 0, scratch)
	cs.keptIdx = make([]int, 0, scratch)
	cs.rep.Prealloc(k-2, sentSpans)
}

// preallocRecvSpans and preallocSentSpans are the arena reservations behind
// prealloc, factored out so TestPreallocCoversSweepDensities can assert the
// measured high-water demand stays within them. See prealloc's sizing table.
func preallocRecvSpans(k, deg int) int {
	f := 3 * (k - 3)
	if f < 4 {
		f = 4 // keep the original G(n,4n) tuning for small k
	}
	return f*deg + 16
}

func preallocSentSpans(k int) int {
	s := 6 * (k - 3)
	if s < 16 {
		s = 16
	}
	return s
}

// reset rebinds the state to a new candidate edge, keeping all buffer
// capacity. It replaces the seed implementation's per-check allocation.
func (cs *checkState) reset(k int, u, v ID, rank uint64, myid ID, seeder bool, mode Mode) {
	if u > v {
		u, v = v, u
	}
	cs.k, cs.halfK = k, k/2
	cs.u, cs.v, cs.rank, cs.myid = u, v, rank, myid
	cs.seeder, cs.mode = seeder, mode
	cs.recv.Reset()
	cs.recvSigs = cs.recvSigs[:0]
	cs.recvRound = 0
	cs.sent.Reset()
	cs.sentSigs = cs.sentSigs[:0]
	cs.sentRound = 0
}

// sameEdge reports whether the check is for the candidate edge {a,b}.
func (cs *checkState) sameEdge(a, b ID) bool {
	if a > b {
		a, b = b, a
	}
	return cs.u == a && cs.v == b
}

// absorbView records the sequences of a parsed check message received at
// Phase-2 round t. Receipts from multiple neighbors in the same round
// accumulate; a new round discards the previous round's receipts (Algorithm 1
// only ever reads the immediately preceding round).
//
// Every decoded sequence is kept. The paper's R is a set, and honest
// traffic keeps it one by itself: every sequence ends with its sender's ID
// and a sender's S is a set, so no two ports carry the same sequence
// (Lemma 1, which TestPhase2SequencesAreSimplePaths checks on live
// traffic). Forged or damaged traffic may repeat a sequence, and a repeat
// changes nothing a pruned node outputs: the representative greedy never
// keeps a copy of a list it has seen, since a witness for the copy would
// have to avoid it while hitting its identical twin, and detect's pairs
// must be disjoint, which a sequence and its copy never are
// (TestDuplicateReceiptsChangeNothing). A malformed body is rolled back in
// full and ignored, like the seed's decode-then-drop.
func (cs *checkState) absorbView(t int, v *wire.CheckView) {
	if t != cs.recvRound {
		cs.recv.Reset()
		cs.recvSigs = cs.recvSigs[:0]
		cs.recvRound = t
	}
	idMark, spanMark := len(cs.recv.IDs), len(cs.recv.Spans)
	it := v.Iter()
	for {
		off := len(cs.recv.IDs)
		ids, ok := it.Next(cs.recv.IDs)
		if !ok {
			break
		}
		cs.recv.IDs = ids
		cs.recv.Spans = append(cs.recv.Spans, wire.Span{Off: int32(off), Len: int32(len(ids) - off)})
		cs.recvSigs = append(cs.recvSigs, sigOf(ids[off:]))
	}
	if it.Err() != nil || it.Trailing() != 0 {
		cs.recv.IDs = cs.recv.IDs[:idMark]
		cs.recv.Spans = cs.recv.Spans[:spanMark]
		cs.recvSigs = cs.recvSigs[:spanMark]
	}
}

// sendSeqs computes the set S of sequences to broadcast at Phase-2 round t
// (1-based) into cs.sent, per Algorithm 1:
//
//   - round 1: the endpoints of the candidate edge seed their own ID
//     (lines 2–7);
//   - round t ≥ 2: R ← sequences received at round t−1, minus any containing
//     myid (lines 11–12); keep a representative subset (lines 14–23, pruned
//     mode) or all of R (naive mode); append myid (line 24).
//
// It returns the number of sequences to send (0 means stay silent); the
// caller encodes cs.sent directly. The sent set is retained for the even-k
// final check (§3.3, see detect).
func (cs *checkState) sendSeqs(t int) int {
	cs.sent.Reset()
	cs.sentSigs = cs.sentSigs[:0]
	if t == 1 {
		if cs.seeder {
			cs.sent.AppendWithTail(nil, cs.myid)
			cs.sentSigs = append(cs.sentSigs, sigOf(cs.sent.Seq(0)))
			cs.sentRound = t
			return 1
		}
		return 0
	}
	if cs.recvRound != t-1 || cs.recv.Len() == 0 {
		return 0
	}
	cs.cleanReceived(t - 1)
	if len(cs.clean) == 0 {
		return 0
	}
	mySig := sigOf([]ID{cs.myid})
	if cs.mode == ModeNaive {
		for _, i := range cs.clean {
			cs.sent.AppendWithTail(cs.seq(i), cs.myid)
			cs.sentSigs = append(cs.sentSigs, cs.recvSigs[i]|mySig)
		}
	} else {
		cs.views = cs.views[:0]
		for _, i := range cs.clean {
			cs.views = append(cs.views, cs.seq(i))
		}
		cs.keptIdx = combin.AppendRepresentatives(cs.keptIdx[:0], cs.views, cs.k-t, &cs.rep)
		for _, idx := range cs.keptIdx {
			i := cs.clean[idx]
			cs.sent.AppendWithTail(cs.seq(i), cs.myid)
			cs.sentSigs = append(cs.sentSigs, cs.recvSigs[i]|mySig)
		}
	}
	cs.sentRound = t
	return cs.sent.Len()
}

// cleanReceived fills cs.clean with the indices of the receipts having the
// expected length and not containing myid, in arrival (port) order.
// Honest receipts are already the paper's set "R ← set of all ordered
// sequences received" (see absorbView), and the processing order of the
// greedy is explicitly arbitrary (§3.3);
// arrival order is deterministic, identical for any worker count, and
// independent of the scheduler, so it is a valid reproducible choice that
// costs nothing (the seed sorted lexicographically here, a hot-path sort
// with no semantic payoff).
func (cs *checkState) cleanReceived(wantLen int) {
	cs.clean = cs.clean[:0]
	myBit := uint64(1) << (uint64(cs.myid) & 63)
	for i, sp := range cs.recv.Spans {
		if int(sp.Len) != wantLen {
			continue
		}
		// Signature fast path: myid can only occur if its bit class is set.
		if cs.recvSigs[i]&myBit != 0 && containsID(cs.recv.Seq(i), cs.myid) {
			continue
		}
		cs.clean = append(cs.clean, int32(i))
	}
}

// seq returns receipt i as a slice into the recv arena.
func (cs *checkState) seq(i int32) []ID {
	return cs.recv.Seq(int(i))
}

// detect runs the final check of Algorithm 1 (lines 31–42) after the last
// Phase-2 round. It returns whether a k-cycle through the candidate edge was
// found and, if so, the cycle as an ordered list of k node IDs starting at
// one endpoint of the candidate edge. The witness is assembled into the
// state's reusable buffer (witBuf) — valid until the next detection on this
// node, so callers that outlive the run must copy it; everything else runs
// on scratch.
//
// Implementation of line 35 (even k): the paper's Lemma 2 requires pairing a
// sequence L1 ∈ S (length k/2, containing myid) with a sequence L2 of length
// k/2 received at round ⌊k/2⌋ that does not contain myid. The literal
// transcription ("received at round ⌊k/2⌋−1") cannot be meant: it misses
// every even-k cycle (TestEvenOddFinalCheckRegression pins this). The size
// condition |L1 ∪ L2 ∪ {myid}| = k then reduces to exact
// disjointness, which is what we check; every reported pair reconstructs a
// genuine cycle because each sequence is a simple path ending at its sender
// (Lemma 1), so the algorithm remains 1-sided.
func (cs *checkState) detect() (bool, []ID) {
	if cs.recvRound != cs.halfK {
		return false, nil
	}
	cs.cleanReceived(cs.halfK)
	last := cs.clean
	if cs.k%2 == 1 {
		// Odd k: two received sequences of length ⌊k/2⌋, fully disjoint,
		// neither containing myid (already filtered by cleanReceived).
		for i := 0; i < len(last); i++ {
			for j := i + 1; j < len(last); j++ {
				if cs.validPair(last[i], last[j]) {
					return true, cs.assembleWitness(cs.seq(last[i]), cs.seq(last[j]))
				}
			}
		}
		return false, nil
	}
	// Even k: own S from the final send against final receipts.
	if cs.sentRound != cs.halfK {
		return false, nil
	}
	for i := 0; i < cs.sent.Len(); i++ {
		l1 := cs.sent.Seq(i)
		if len(l1) != cs.halfK {
			continue
		}
		for _, r := range last {
			if cs.validPairEven(l1, cs.sentSigs[i], r) {
				return true, cs.assembleWitnessEven(l1, cs.seq(r))
			}
		}
	}
	return false, nil
}

// validPair checks the odd-k pair condition: disjoint sequences whose heads
// are the two distinct endpoints of the candidate edge. (Lemma 1 already
// forces each head into {u, v}; checking it explicitly keeps the detector
// 1-sided even against malformed traffic.) Signature disjointness certifies
// real disjointness; only colliding signatures need the exact scan.
func (cs *checkState) validPair(r1, r2 int32) bool {
	s1, s2 := cs.seq(r1), cs.seq(r2)
	if cs.recvSigs[r1]&cs.recvSigs[r2] != 0 && intersectSeq(s1, s2) {
		return false
	}
	h1, h2 := s1[0], s2[0]
	return (h1 == cs.u && h2 == cs.v) || (h1 == cs.v && h2 == cs.u)
}

// validPairEven checks the even-k pair condition: l1 ∈ S ends with myid, l2
// was received (no myid), they are disjoint, and their heads are the two
// endpoints.
func (cs *checkState) validPairEven(l1 []ID, sig1 uint64, r2 int32) bool {
	if l1[len(l1)-1] != cs.myid {
		return false
	}
	s2 := cs.seq(r2)
	if sig1&cs.recvSigs[r2] != 0 && intersectSeq(l1, s2) {
		return false
	}
	h1, h2 := l1[0], s2[0]
	return (h1 == cs.u && h2 == cs.v) || (h1 == cs.v && h2 == cs.u)
}

// assembleWitness builds the odd-k cycle (x1..xl, myid, ym..y1): l1 forward,
// own ID, l2 reversed. Each sequence's tail is its sender, a neighbor of
// this node, and the heads are the candidate edge, so consecutive witness
// entries are adjacent in the graph.
func (cs *checkState) assembleWitness(l1, l2 []ID) []ID {
	w := append(cs.witSlot(len(l1)+len(l2)+1), l1...)
	w = append(w, cs.myid)
	for i := len(l2) - 1; i >= 0; i-- {
		w = append(w, l2[i])
	}
	cs.witBuf = w
	return w
}

// assembleWitnessEven builds the even-k cycle: l1 already ends with myid.
func (cs *checkState) assembleWitnessEven(l1, l2 []ID) []ID {
	w := append(cs.witSlot(len(l1)+len(l2)), l1...)
	for i := len(l2) - 1; i >= 0; i-- {
		w = append(w, l2[i])
	}
	cs.witBuf = w
	return w
}

// witSlot returns the empty witness buffer with room for n IDs. A Tester
// node's buffer is carved by prealloc; an EdgeDetector node pays one
// exact-capacity allocation on its first detection, none on reuse.
func (cs *checkState) witSlot(n int) []ID {
	if cap(cs.witBuf) < n {
		cs.witBuf = make([]ID, 0, n)
	}
	return cs.witBuf[:0]
}

func containsID(seq []ID, id ID) bool {
	for _, x := range seq {
		if x == id {
			return true
		}
	}
	return false
}

func intersectSeq(a, b []ID) bool {
	for _, x := range a {
		if containsID(b, x) {
			return true
		}
	}
	return false
}
