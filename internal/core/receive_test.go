package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"cycledetect/internal/network"
	"cycledetect/internal/wire"
	"cycledetect/internal/xrand"
)

// receiveReference is the single-pass Phase-2 receive that receiveChecks
// replaced, kept as its oracle: every port in order, each well-formed check
// header through the preemption rule at once, a check named by its rank and
// its edge. Switch counting is left out; it changed meaning with the
// two-pass receive.
func receiveReference(n *testerNode, local int, in [][]byte) {
	for _, payload := range in {
		if wire.Kind(payload) != wire.KindCheck {
			continue
		}
		c, err := wire.ParseCheck(payload)
		if err != nil {
			continue
		}
		u, v := canonEdge(c.U, c.V)
		if n.active {
			if c.Rank == n.cs.rank && n.cs.u == u && n.cs.v == v {
				n.cs.absorbView(local, &c)
				continue
			}
			if !lessCheck(c.Rank, u, v, n.cs.rank, n.cs.u, n.cs.v) {
				continue
			}
		}
		if c.Validate() != nil {
			continue
		}
		n.cs.reset(n.prog.K, u, v, c.Rank, n.info.ID, false, n.prog.Mode)
		n.active = true
		n.cs.absorbView(local, &c)
	}
}

// recvState is the node state a Phase-2 receive writes, the part that
// receiveChecks and receiveReference must agree on.
type recvState struct {
	active               bool
	u, v                 ID
	rank                 uint64
	recvRound, sentRound int
	recvIDs, sentIDs     []ID
	recvSpans, sentSpans []wire.Span
	recvSigs, sentSigs   []uint64
}

func stateOf(n *testerNode) recvState {
	cs := &n.cs
	return recvState{
		active: n.active, u: cs.u, v: cs.v, rank: cs.rank,
		recvRound: cs.recvRound, sentRound: cs.sentRound,
		recvIDs: slices.Clone(cs.recv.IDs), recvSpans: slices.Clone(cs.recv.Spans),
		recvSigs: slices.Clone(cs.recvSigs),
		sentIDs:  slices.Clone(cs.sent.IDs), sentSpans: slices.Clone(cs.sent.Spans),
		sentSigs: slices.Clone(cs.sentSigs),
	}
}

func (a recvState) equal(b recvState) bool {
	return a.active == b.active && a.u == b.u && a.v == b.v && a.rank == b.rank &&
		a.recvRound == b.recvRound && a.sentRound == b.sentRound &&
		slices.Equal(a.recvIDs, b.recvIDs) && slices.Equal(a.recvSpans, b.recvSpans) &&
		slices.Equal(a.recvSigs, b.recvSigs) &&
		slices.Equal(a.sentIDs, b.sentIDs) && slices.Equal(a.sentSpans, b.sentSpans) &&
		slices.Equal(a.sentSigs, b.sentSigs)
}

// receiveCase is one randomized Phase-2 receive: the node's check before
// the round (or none), what it sent and received in the round before, and
// the payload on each port.
type receiveCase struct {
	myid   ID
	nbrs   []ID
	local  int
	active bool
	u, v   ID
	rank   uint64
	sent   [][]ID
	recv   [][]ID
	in     [][]byte
}

// prime puts a fresh node into the case's pre-round state.
func (rc *receiveCase) prime(n *testerNode) {
	if !rc.active {
		return
	}
	n.cs.reset(n.prog.K, rc.u, rc.v, rc.rank, rc.myid, false, n.prog.Mode)
	n.active = true
	for _, s := range rc.sent {
		n.cs.sent.Append(s)
		n.cs.sentSigs = append(n.cs.sentSigs, sigOf(s))
	}
	n.cs.sentRound = rc.local
	for _, s := range rc.recv {
		n.cs.recv.Append(s)
		n.cs.recvSigs = append(n.cs.recvSigs, sigOf(s))
	}
	n.cs.recvRound = rc.local - 1
}

// randomSeqs draws up to three sequences of IDs in [0, 24), mostly of the
// round's length: short IDs keep duplicates across ports common, so the
// arrival dedup and its order matter.
func randomSeqs(rng *xrand.RNG, ln int) [][]ID {
	seqs := make([][]ID, rng.Intn(4))
	for i := range seqs {
		l := ln
		if rng.Intn(5) == 0 {
			l = rng.Intn(ln + 2)
		}
		seqs[i] = make([]ID, l)
		for j := range seqs[i] {
			seqs[i][j] = ID(rng.Intn(24))
		}
	}
	return seqs
}

// randomPayload draws one port's payload. Ranks come from a small range
// around the node's own so that ties and near misses are common; edges
// from a few candidates that include the node's current edge, so that
// payloads naming that edge with another rank occur. About a third of the
// checks are damaged: the header cut after the rank or inside the edge, a
// truncated body, or a trailing byte.
func randomPayload(rng *xrand.RNG, rc *receiveCase) []byte {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return wire.EncodeRank(wire.Rank{Rank: uint64(rng.Intn(8))})
	}
	c := &wire.Check{Rank: uint64(rng.Intn(8)), Seqs: randomSeqs(rng, rc.local)}
	switch rng.Intn(4) {
	case 0:
		c.U, c.V = rc.u, rc.v
	case 1:
		c.U, c.V = rc.v, rc.u
	default:
		c.U, c.V = ID(rng.Intn(6)), ID(6+rng.Intn(6))
	}
	if rng.Intn(4) == 0 {
		c.Rank = rc.rank
	}
	p := wire.EncodeCheck(c)
	if rng.Intn(3) != 0 {
		return p
	}
	rankEnd := 1 + len(binary.AppendUvarint(nil, c.Rank))
	switch rng.Intn(4) {
	case 0:
		return p[:rankEnd] // header cut after the rank
	case 1:
		return p[:rankEnd+1] // header cut inside the edge
	case 2:
		if len(p) > rankEnd+4 {
			return p[:len(p)-1] // body cut short
		}
		return append(p[:rankEnd+3:rankEnd+3], 9) // count larger than the body
	default:
		return append(p, 0) // trailing byte
	}
}

func randomReceiveCase(rng *xrand.RNG, k int) *receiveCase {
	rc := &receiveCase{myid: ID(rng.Intn(24)), local: 1 + rng.Intn(k/2)}
	rc.nbrs = make([]ID, 1+rng.Intn(8))
	for p := range rc.nbrs {
		rc.nbrs[p] = ID(24 + p)
	}
	rc.active = rng.Intn(8) != 0
	rc.u, rc.v = canonEdge(ID(rng.Intn(6)), ID(6+rng.Intn(6)))
	rc.rank = uint64(1 + rng.Intn(6))
	rc.sent = randomSeqs(rng, rc.local)
	if rc.local > 1 {
		rc.recv = randomSeqs(rng, rc.local-1)
	}
	rc.in = make([][]byte, len(rc.nbrs))
	for p := range rc.in {
		rc.in[p] = randomPayload(rng, rc)
	}
	return rc
}

// TestReceiveChecksMatchesSinglePass runs the two-pass receive and the
// single-pass reference on the same randomized ports and demands the same
// node state after the round: active flag, check, receipts (IDs, spans and
// signatures, in order) and sent arena. The port mix has honest checks at
// distinct and equal ranks, payloads naming the current edge with another
// rank, rank-0 payloads, damaged headers and bodies (also at the lowest
// rank, where only the fallback pass decides), rank announcements and nil
// ports. The test also counts the rounds whose lowest-rank checks were all
// damaged while a valid one of a higher rank won, so it cannot pass without
// exercising that path.
func TestReceiveChecksMatchesSinglePass(t *testing.T) {
	const trials = 20000
	for _, k := range []int{5, 7} {
		prog := &Tester{K: k, Reps: 1}
		rng := xrand.New(uint64(40 + k))
		fallbacks := 0
		for trial := 0; trial < trials; trial++ {
			rc := randomReceiveCase(rng, k)
			info := network.NodeInfo{ID: rc.myid, N: 64, NeighborIDs: rc.nbrs}
			ref := prog.NewNode(info).(*testerNode)
			got := prog.NewNode(info).(*testerNode)
			rc.prime(ref)
			rc.prime(got)

			receiveReference(ref, rc.local, rc.in)
			got.receiveChecks(rc.local, rc.in)
			want, have := stateOf(ref), stateOf(got)
			if !want.equal(have) {
				t.Fatalf("k=%d trial %d: two-pass receive differs from the single pass\ncase  %+v\nwant  %+v\ngot   %+v",
					k, trial, *rc, want, have)
			}
			if lo, ok := got.lowestRank(rc.in); ok && want.active && want.rank > lo &&
				(!rc.active || want.rank != rc.rank) {
				fallbacks++
			}
		}
		if fallbacks < trials/100 {
			t.Fatalf("k=%d: only %d of %d rounds needed the fallback pass; the port mix no longer exercises it",
				k, fallbacks, trials)
		}
	}
}
