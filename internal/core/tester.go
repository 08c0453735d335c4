package core

import (
	"fmt"
	"math"

	"cycledetect/internal/network"
	"cycledetect/internal/ptest"
	"cycledetect/internal/wire"
)

// Tester is the full randomized property tester for Ck-freeness (Theorem 1).
//
// Each repetition spends one round on Phase 1 — every edge's lower-ID
// endpoint draws a random rank and announces it across the edge — and ⌊k/2⌋
// rounds on rank-prioritized Phase-2 checks: every node starts Algorithm 1
// for its incident edge of minimum rank, discards traffic of higher-rank
// checks, and defects to lower-rank checks it hears about. Exactly one check
// message crosses each edge direction per round, so the CONGEST bandwidth
// bound is preserved under full concurrency.
//
// With probability ≥ 1/e² all ranks are distinct (Lemma 5), in which case
// the globally minimum-rank edge's check runs exactly like an isolated
// EdgeDetector; on an ε-far instance that edge lies on a k-cycle with
// probability ≥ ε (Lemma 4), so ⌈(e²/ε)·ln 3⌉ repetitions reject with
// probability ≥ 2/3. A Ck-free graph is never rejected.
//
// A node's reject is final, so in later repetitions it skips the final
// check and leaves the last Phase-2 round's receipts, which only that
// check reads, undecoded. It still joins, switches and relays checks as
// before: its messages and switch count do not change.
//
// Every check forwards Algorithm 1's representative subsets (ModePruned),
// the one policy that keeps a message within Lemma 3's bound; the §3.2
// append-and-forward strawman runs only on EdgeDetector, as an ablation
// baseline.
type Tester struct {
	K int
	// Eps is the property-testing parameter; used only to derive the
	// repetition count when Reps is zero.
	Eps float64
	// Reps overrides the repetition count when positive (tests and
	// experiments use Reps=1 to measure per-repetition behavior).
	Reps int
}

var _ network.Program = (*Tester)(nil)

// Repetitions returns the number of two-phase repetitions this tester runs.
func (t *Tester) Repetitions() int {
	if t.Reps > 0 {
		return t.Reps
	}
	return ptest.Reps(t.Eps)
}

// RoundsPerRep returns the rounds spent per repetition: one Phase-1 rank
// round plus ⌊k/2⌋ Phase-2 rounds.
func (t *Tester) RoundsPerRep() int { return 1 + t.K/2 }

// Rounds implements network.Program; the total is independent of n and m.
func (t *Tester) Rounds(n, m int) int { return t.Repetitions() * t.RoundsPerRep() }

// NewNode builds the per-node state.
func (t *Tester) NewNode(info network.NodeInfo) network.Node {
	if t.K < 3 {
		panic(fmt.Sprintf("core: Tester needs k >= 3, got %d", t.K))
	}
	if t.Reps <= 0 && (t.Eps <= 0 || t.Eps >= 1) {
		panic("core: Tester needs Reps > 0 or Eps in (0,1)")
	}
	deg := info.Degree()
	ranks, flags := make([]uint64, 2*deg), make([]bool, 2*deg)
	n := &testerNode{
		prog:      t,
		info:      info,
		rankMax:   rankRange(info.N),
		edgeRanks: ranks[:deg:deg],
		mine:      flags[:deg:deg],
		portRanks: ranks[deg:],
		portLive:  flags[deg:],
	}
	n.cs.prealloc(t.K, deg)
	n.checkBuf = make([]byte, 0, 256)
	return n
}

// rankRange is the upper end of Phase 1's rank range on an n-vertex
// network: n⁴, since [1, n⁴] ⊇ [1, m²] because m ≤ n². n⁴ overflows uint64
// from n = 2^16 on, so the range saturates at MaxUint64 there, which still
// covers m² for every m < 2^32.
func rankRange(n int) uint64 {
	if n >= 1<<16 {
		return math.MaxUint64
	}
	nn := uint64(n)
	return max(nn*nn*nn*nn, 1)
}

type testerNode struct {
	prog    *Tester
	info    network.NodeInfo
	rankMax uint64

	// Per-repetition Phase-1 state.
	edgeRanks []uint64 // rank of the incident edge on each port
	mine      []bool   // whether this node drew the rank for that port

	// Per-round Phase-2 scratch, written by lowestRank: the rank of the
	// check on each port, and whether the port holds one. Carved from the
	// same allocations as edgeRanks and mine.
	portRanks []uint64
	portLive  []bool

	cs       checkState // current (lowest-rank) check, valid when active
	active   bool
	rejected bool
	witness  []ID
	metrics  NodeMetrics
	verdict  Verdict // cached output, returned by pointer from Output

	// Reusable outgoing-payload buffers. The engine's barriers guarantee
	// payloads are consumed before the next Send, so one buffer per kind
	// suffices.
	rankBuf  []byte
	checkBuf []byte
}

var _ network.ReusableNode = (*testerNode)(nil)

// Reset implements network.ReusableNode: re-bind the node to a fresh run of
// the same Tester (typically with a different coin stream) without
// reallocating its arenas. Phase-1 state (edgeRanks, mine) is rewritten by
// startRepetition at round 1 and checkState is rewritten by selectCheck (or
// by consider, on preemption) before first use, so only cross-repetition
// state needs clearing here.
func (n *testerNode) Reset(info network.NodeInfo) {
	n.info = info
	n.active = false
	n.rejected = false
	n.witness = nil
	n.metrics.reset()
}

// phase decomposes a global round number into (repetition, local round);
// local round 0 is the Phase-1 rank round, 1..⌊k/2⌋ are Phase-2 rounds.
func (n *testerNode) phase(round int) (rep, local int) {
	per := n.prog.RoundsPerRep()
	return (round - 1) / per, (round - 1) % per
}

func (n *testerNode) Send(round int, out [][]byte) {
	_, local := n.phase(round)
	if local == 0 {
		n.startRepetition(out)
		return
	}
	if local == 1 {
		n.selectCheck()
	}
	if !n.active {
		return
	}
	cnt := n.cs.sendSeqs(local)
	n.metrics.observeSend(local, cnt, n.prog.K/2)
	if cnt == 0 {
		return
	}
	n.checkBuf = wire.AppendCheckArena(n.checkBuf[:0], n.cs.u, n.cs.v, n.cs.rank, &n.cs.sent)
	for p := range out {
		out[p] = n.checkBuf
	}
}

// startRepetition implements Phase 1's rank draw: each edge is assigned to
// its smaller-ID endpoint, which draws a uniform rank in [1, rankMax] and
// announces it across the edge. Rank payloads are carved out of one
// pre-sized per-node buffer.
func (n *testerNode) startRepetition(out [][]byte) {
	n.active = false
	const maxRankBytes = 11 // kind byte + 10-byte uvarint
	if cap(n.rankBuf) < len(out)*maxRankBytes {
		n.rankBuf = make([]byte, 0, len(out)*maxRankBytes)
	}
	buf := n.rankBuf[:0]
	for p, nbr := range n.info.NeighborIDs {
		n.mine[p] = n.info.ID < nbr
		n.edgeRanks[p] = 0
		if n.mine[p] {
			r := n.info.Rand.Rank(n.rankMax)
			n.edgeRanks[p] = r
			start := len(buf)
			buf = wire.AppendRank(buf, wire.Rank{Rank: r})
			out[p] = buf[start:len(buf):len(buf)]
		}
	}
	n.rankBuf = buf
}

// selectCheck picks the incident edge of minimum (rank, edge) and starts a
// check for it. Ties are broken by the canonical edge order (min ID, max
// ID), which is globally consistent.
func (n *testerNode) selectCheck() {
	best := -1
	var bu, bv ID
	for p, nbr := range n.info.NeighborIDs {
		u, v := canonEdge(n.info.ID, nbr)
		if best == -1 || lessCheck(n.edgeRanks[p], u, v, n.edgeRanks[best], bu, bv) {
			best, bu, bv = p, u, v
		}
	}
	if best == -1 {
		return // isolated node; cannot happen in a connected graph with n >= 2
	}
	// The selected edge is incident, so this node is an endpoint of a real
	// edge and must seed.
	n.cs.reset(n.prog.K, bu, bv, n.edgeRanks[best], n.info.ID, true, ModePruned)
	n.active = true
}

func (n *testerNode) Receive(round int, in [][]byte) {
	_, local := n.phase(round)
	if local == 0 {
		// Phase-1 rounds carry only rank announcements; anything else is
		// dropped without further parsing.
		for p, payload := range in {
			if wire.Kind(payload) != wire.KindRank {
				continue
			}
			r, err := wire.DecodeRank(payload)
			if err != nil {
				continue
			}
			n.edgeRanks[p] = r.Rank
		}
		return
	}
	n.receiveChecks(local, in)
	// Once rejected, the verdict is final (the tester is 1-sided): later
	// repetitions skip the quadratic pair scan AND the witness assembly,
	// which also keeps the reusable witness buffer (checkState.witBuf)
	// pinned to the first detection for the rest of the run. Nothing else
	// reads the last Phase-2 round's receipts, so a rejected node leaves
	// them undecoded (consider); earlier rounds' receipts feed its sends.
	if local == n.prog.K/2 && n.active && !n.rejected {
		if reject, wit := n.cs.detect(); reject {
			n.rejected = true
			n.witness = wit
		}
	}
}

// receiveChecks is the Phase-2 receive. The node keeps only the lowest-rank
// check it hears (§3.1), so it works in two passes. Pass 1 (lowestRank)
// reads each port's rank, the first field of a check, and finds the lowest.
// Pass 2 parses and considers only the checks at that rank, in port order:
// a check that loses on rank is never parsed, and no sequence is absorbed
// that a later switch in the same round would drop. Only when every check at
// the lowest rank is malformed does pass 2 leave the node on a check of
// another rank; then the single pass over every port decides, as it would
// have without pass 1. Either way the node ends on the same check with the
// same receipts, in the same order, as that single pass. A node that defects
// to another check counts one switch for the round.
func (n *testerNode) receiveChecks(local int, in [][]byte) {
	lo, ok := n.lowestRank(in)
	if !ok || (n.active && lo > n.cs.rank) {
		return // no check, or none that can beat the current one
	}
	defected := false
	for p, payload := range in {
		if n.portLive[p] && n.portRanks[p] == lo {
			defected = n.considerPayload(local, payload) || defected
		}
	}
	if !n.active || n.cs.rank != lo {
		// Every check at the lowest rank was malformed and changed
		// nothing; a valid one of a higher rank may still win.
		for _, payload := range in {
			defected = n.considerPayload(local, payload) || defected
		}
	}
	if defected {
		n.metrics.Switches++
	}
}

// lowestRank is pass 1 of receiveChecks: it records each port's check rank
// in portRanks and portLive and returns the lowest rank on any port (ok is
// false when no port holds a check).
func (n *testerNode) lowestRank(in [][]byte) (lo uint64, ok bool) {
	for p, payload := range in {
		r, live := wire.CheckRank(payload)
		n.portRanks[p], n.portLive[p] = r, live
		if live && (!ok || r < lo) {
			lo, ok = r, true
		}
	}
	return lo, ok
}

// considerPayload parses a port's check header in place and hands it to
// consider; a payload of another kind or with a malformed header is
// dropped. An absorbed check's sequences are decoded straight into the
// check's arena, with rollback on a malformed body, which is equivalent to
// the seed's decode-then-drop.
func (n *testerNode) considerPayload(local int, payload []byte) bool {
	if wire.Kind(payload) != wire.KindCheck {
		return false
	}
	v, err := wire.ParseCheck(payload)
	if err != nil {
		return false
	}
	return n.consider(local, &v)
}

// consider applies the paper's preemption rule to an incoming check message:
// discard if its check ranks worse than the current one, absorb if it is the
// same check, and switch to it if it ranks better (§3.1). A check is named
// by its rank and its edge, so a message that names the current edge with
// another rank is another check. Discarded messages never have their
// sequence bytes decoded. It reports whether the node defected from an
// active check.
func (n *testerNode) consider(local int, c *wire.CheckView) bool {
	// detect is the only reader of the last round's receipts, and a
	// rejected node no longer runs it (see Receive), so it leaves them
	// undecoded; its check and switch count move as before.
	absorb := !n.rejected || local != n.prog.K/2
	u, v := canonEdge(c.U, c.V)
	if n.active {
		if c.Rank == n.cs.rank && n.cs.sameEdge(u, v) {
			if absorb {
				n.cs.absorbView(local, c)
			}
			return false
		}
		if !lessCheck(c.Rank, u, v, n.cs.rank, n.cs.u, n.cs.v) {
			return false // strictly worse: discard (line "r(e') > r(e)")
		}
	}
	// Validate the body before adopting the check, so a malformed message
	// cannot preempt or activate anything (matching the seed, which dropped
	// malformed messages before considering them).
	if c.Validate() != nil {
		return false
	}
	defected := n.active
	// Joining a check mid-flight: the seeding round has already passed, so
	// the seeder flag is moot; pass false for clarity.
	n.cs.reset(n.prog.K, u, v, c.Rank, n.info.ID, false, ModePruned)
	n.active = true
	if absorb {
		n.cs.absorbView(local, c)
	}
	return defected
}

func (n *testerNode) Output() any {
	// The verdict is cached in the node and returned by pointer so that
	// engine output collection does not box a multi-word struct — the last
	// per-node allocation on the reusable-network run path. The pointee is
	// valid until the node's next Reset.
	n.verdict = Verdict{Reject: n.rejected, Witness: n.witness, Metrics: n.metrics}
	return &n.verdict
}

// canonEdge orders an ID pair.
func canonEdge(a, b ID) (ID, ID) {
	if a > b {
		return b, a
	}
	return a, b
}

// lessCheck is the global priority order on checks: lower rank first, ties
// by canonical edge.
func lessCheck(r1 uint64, u1, v1 ID, r2 uint64, u2, v2 ID) bool {
	if r1 != r2 {
		return r1 < r2
	}
	if u1 != u2 {
		return u1 < u2
	}
	return v1 < v2
}
