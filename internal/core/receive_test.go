package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"cycledetect/internal/graph"
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
		n.cs.reset(n.prog.K, u, v, c.Rank, n.info.ID, false, ModePruned)
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
	n.cs.reset(n.prog.K, rc.u, rc.v, rc.rank, rc.myid, false, ModePruned)
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
// order in which receipts arrive, repeats included, matters.
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

// randomReceiveCase draws a case at the given Phase-2 round, or at a
// random one of the k/2 rounds when local is 0.
func randomReceiveCase(rng *xrand.RNG, k, local int) *receiveCase {
	rc := &receiveCase{myid: ID(rng.Intn(24)), local: local}
	if local == 0 {
		rc.local = 1 + rng.Intn(k/2)
	}
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
			rc := randomReceiveCase(rng, k, 0)
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

// receiptArena copies a node's receipt arena up to its capacity, so that a
// comparison sees writes past its length too.
func receiptArena(n *testerNode) ([]ID, []wire.Span, []uint64) {
	cs := &n.cs
	return slices.Clone(cs.recv.IDs[:cap(cs.recv.IDs)]),
		slices.Clone(cs.recv.Spans[:cap(cs.recv.Spans)]),
		slices.Clone(cs.recvSigs[:cap(cs.recvSigs)])
}

// rejectedReceiveDiff runs rc's Phase-2 receive on a node that has
// rejected and on one that has not. Before the last Phase-2 round the two
// must end in the same state. In the last round they must end on the same
// active flag, check and sent arena, and the rejected node must leave its
// receipt arena as it was. Both must count the same switches. It returns
// what differs, or "", and whether the unrejected node stored receipts of
// the round.
func rejectedReceiveDiff(prog *Tester, rc *receiveCase) (diff string, stored bool) {
	info := network.NodeInfo{ID: rc.myid, N: 64, NeighborIDs: rc.nbrs}
	open := prog.NewNode(info).(*testerNode)
	done := prog.NewNode(info).(*testerNode)
	rc.prime(open)
	rc.prime(done)
	done.rejected = true
	ids, spans, sigs := receiptArena(done)

	open.receiveChecks(rc.local, rc.in)
	done.receiveChecks(rc.local, rc.in)
	want, have := stateOf(open), stateOf(done)
	stored = open.cs.recvRound == rc.local && open.cs.recv.Len() > 0
	if open.metrics.Switches != done.metrics.Switches {
		return fmt.Sprintf("switches: unrejected %d, rejected %d",
			open.metrics.Switches, done.metrics.Switches), stored
	}
	if rc.local < prog.K/2 {
		if !want.equal(have) {
			return fmt.Sprintf("round %d of %d: the rejected node's state differs\nwant %+v\ngot  %+v",
				rc.local, prog.K/2, want, have), stored
		}
		return "", stored
	}
	want.recvRound, want.recvIDs, want.recvSpans, want.recvSigs = 0, nil, nil, nil
	have.recvRound, have.recvIDs, have.recvSpans, have.recvSigs = 0, nil, nil, nil
	if !want.equal(have) {
		return fmt.Sprintf("the rejected node ends on another check\nwant %+v\ngot  %+v", want, have), stored
	}
	ids2, spans2, sigs2 := receiptArena(done)
	if done.cs.recvRound == rc.local || !slices.Equal(ids, ids2) ||
		!slices.Equal(spans, spans2) || !slices.Equal(sigs, sigs2) {
		return "the rejected node wrote last-round receipts", stored
	}
	return "", stored
}

// TestRejectedReceiveSkipsOnlyReceipts drives the last Phase-2 round of
// randomized cases through a rejected and an unrejected node: they must
// end on the same active flag, check and switch count, and the rejected
// node must not write its receipt arena (rejectedReceiveDiff). The test
// also counts the rounds in which the unrejected node stored receipts, so
// it cannot pass on cases that store nothing.
func TestRejectedReceiveSkipsOnlyReceipts(t *testing.T) {
	const trials = 4000
	for k := 3; k <= 9; k++ {
		prog := &Tester{K: k, Reps: 1}
		rng := xrand.New(uint64(60 + k))
		stores := 0
		for trial := 0; trial < trials; trial++ {
			rc := randomReceiveCase(rng, k, k/2)
			diff, stored := rejectedReceiveDiff(prog, rc)
			if diff != "" {
				t.Fatalf("k=%d trial %d: %s\ncase %+v", k, trial, diff, *rc)
			}
			if stored {
				stores++
			}
		}
		if stores < trials/4 {
			t.Fatalf("k=%d: the unrejected node stored receipts in only %d of %d rounds", k, stores, trials)
		}
	}
}

// splitPorts cuts fuzz input into port payloads: the first byte picks 1 to
// 8 ports, then each payload is a length byte and that many bytes, cut
// short at the end of b. A port of length 0 or past the end of b is nil.
func splitPorts(b []byte) [][]byte {
	if len(b) == 0 {
		return [][]byte{nil}
	}
	in := make([][]byte, 1+int(b[0])%8)
	b = b[1:]
	for p := range in {
		if len(b) == 0 {
			break
		}
		n := min(int(b[0]), len(b)-1)
		if n > 0 {
			in[p] = b[1 : 1+n]
		}
		b = b[1+n:]
	}
	return in
}

// joinPorts is splitPorts' inverse for up to 8 ports of at most 255 bytes.
func joinPorts(in [][]byte) []byte {
	b := []byte{byte(len(in) - 1)}
	for _, p := range in {
		b = append(b, byte(len(p)))
		b = append(b, p...)
	}
	return b
}

// FuzzReceiveChecks feeds arbitrary port payloads to the Phase-2 receive of
// a node primed from the input: k in 3..9, the round, the node's check (or
// none) and whether it has rejected. The receive must not panic. An
// unrejected node must end as receiveReference leaves it; a rejected one
// as rejectedReceiveDiff requires. The corpus is seeded from
// randomReceiveCase.
func FuzzReceiveChecks(f *testing.F) {
	rng := xrand.New(70)
	for i := 0; i < 64; i++ {
		k := 3 + rng.Intn(7)
		rc := randomReceiveCase(rng, k, 0)
		f.Add(uint8(k-3), uint8(rc.local-1), uint8(rc.myid), rc.active,
			uint8(rc.u), uint8(rc.v), rc.rank, i%2 == 1, joinPorts(rc.in))
	}
	f.Fuzz(func(t *testing.T, kb, local, myid uint8, active bool, u, v uint8,
		rank uint64, rejected bool, ports []byte) {
		k := 3 + int(kb)%7
		rc := &receiveCase{myid: ID(myid), local: 1 + int(local)%(k/2),
			active: active, rank: rank, in: splitPorts(ports)}
		rc.u, rc.v = canonEdge(ID(u), ID(v))
		rc.nbrs = make([]ID, len(rc.in))
		for p := range rc.nbrs {
			rc.nbrs[p] = ID(256 + p)
		}
		prog := &Tester{K: k, Reps: 1}
		if rejected {
			if diff, _ := rejectedReceiveDiff(prog, rc); diff != "" {
				t.Fatalf("k=%d: %s\ncase %+v", k, diff, *rc)
			}
			return
		}
		info := network.NodeInfo{ID: rc.myid, N: 64, NeighborIDs: rc.nbrs}
		ref := prog.NewNode(info).(*testerNode)
		got := prog.NewNode(info).(*testerNode)
		rc.prime(ref)
		rc.prime(got)
		receiveReference(ref, rc.local, rc.in)
		got.receiveChecks(rc.local, rc.in)
		if want, have := stateOf(ref), stateOf(got); !want.equal(have) {
			t.Fatalf("k=%d: two-pass receive differs from the single pass\ncase %+v\nwant %+v\ngot  %+v",
				k, *rc, want, have)
		}
	})
}

// feedTwice is a tester node that hears every Phase-2 payload twice: each
// Phase-2 receive runs receiveChecks over the round's ports once before the
// node's own Receive runs it again.
type feedTwice struct{ *testerNode }

func (n feedTwice) Receive(round int, in [][]byte) {
	if _, local := n.phase(round); local > 0 {
		n.receiveChecks(local, in)
	}
	n.testerNode.Receive(round, in)
}

// TestDuplicateReceiptsChangeNothing pins the equivalence behind
// absorbView's keeping every decoded sequence. Two runs of the same tester
// and seed go side by side in the lockstep harness, one of them with every
// node fed every Phase-2 payload twice, so that its receipts repeat. After
// every round each node must have sent the same bytes from the same sent
// arena, stayed on the same check, and reached the same detect result
// (reject flag and witness): the representative greedy never keeps a copy
// of an earlier list, and detect pairs only disjoint sequences.
func TestDuplicateReceiptsChangeNothing(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"G(40,160)": graph.ConnectedGNM(40, 160, xrand.New(5)),
		"K_{5,6}":   graph.CompleteBipartite(5, 6),
	}
	rejects := 0
	for name, g := range graphs {
		for k := 3; k <= 9; k++ {
			prog := &Tester{K: k, Reps: 3}
			once, twice := newLockstep(g, prog, uint64(k)), newLockstep(g, prog, uint64(k))
			for v, nd := range twice.nodes {
				twice.nodes[v] = feedTwice{nd.(*testerNode)}
			}
			for r := 1; r <= prog.Rounds(g.N(), g.M()); r++ {
				once.round(r, nil)
				twice.round(r, nil)
				for v := range once.nodes {
					a, b := once.nodes[v].(*testerNode), twice.nodes[v].(feedTwice).testerNode
					for p := range once.out[v] {
						if !slices.Equal(once.out[v][p], twice.out[v][p]) {
							t.Fatalf("%s k=%d round %d: node %d port %d sent %x, fed twice %x",
								name, k, r, v, p, once.out[v][p], twice.out[v][p])
						}
					}
					if !slices.Equal(a.cs.sent.IDs, b.cs.sent.IDs) || !slices.Equal(a.cs.sent.Spans, b.cs.sent.Spans) ||
						a.active != b.active || a.cs.rank != b.cs.rank || a.cs.u != b.cs.u || a.cs.v != b.cs.v {
						t.Fatalf("%s k=%d round %d: node %d ends on another check or sent arena when fed twice", name, k, r, v)
					}
					if a.rejected != b.rejected || !slices.Equal(a.witness, b.witness) {
						t.Fatalf("%s k=%d round %d: node %d detects %v %v, fed twice %v %v",
							name, k, r, v, a.rejected, a.witness, b.rejected, b.witness)
					}
				}
			}
			for _, nd := range once.nodes {
				if nd.(*testerNode).rejected {
					rejects++
				}
			}
		}
	}
	if rejects == 0 {
		t.Fatal("no node rejected in any run; the comparison never saw a witness")
	}
}
