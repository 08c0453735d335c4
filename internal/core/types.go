package core

import "slices"

// Verdict is a node's final output. In the distributed-decision convention
// of §2.2, the network accepts iff every node accepts; a single rejecting
// node means a k-cycle was found.
type Verdict struct {
	// Reject is true iff the node output "reject" (found a k-cycle).
	Reject bool
	// Witness, when rejecting, is the detected k-cycle as an ordered list of
	// node IDs, starting at one endpoint of the candidate edge; consecutive
	// entries (and the last/first pair) are adjacent in the network.
	Witness []ID
	// Metrics are per-node instrumentation counters.
	Metrics NodeMetrics
}

// NodeMetrics instruments a node's run for the experiment harness.
type NodeMetrics struct {
	// MaxSeqsPerRound[t-1] is the largest number of sequences this node put
	// into a single Phase-2 round-t message, maximized over repetitions.
	// Lemma 3 bounds it by (k−t+1)^(t−1) in pruned mode.
	MaxSeqsPerRound []int
	// MaxSeqs is the maximum over all rounds.
	MaxSeqs int
	// Switches counts check preemptions (full tester only): the Phase-2
	// rounds in which the node abandoned its current check for a
	// lower-rank one. A round counts once, since the node decodes only the
	// checks of the lowest rank it hears and goes straight to the winner.
	Switches int
}

// reset zeroes the counters in place for node reuse across runs. The
// MaxSeqsPerRound slice keeps its backing array (observeSend re-fills it),
// so a reused node allocates nothing on its next run.
func (m *NodeMetrics) reset() {
	for i := range m.MaxSeqsPerRound {
		m.MaxSeqsPerRound[i] = 0
	}
	m.MaxSeqs = 0
	m.Switches = 0
}

func (m *NodeMetrics) observeSend(t, seqs, rounds int) {
	if m.MaxSeqsPerRound == nil {
		m.MaxSeqsPerRound = make([]int, rounds)
	}
	if seqs > m.MaxSeqsPerRound[t-1] {
		m.MaxSeqsPerRound[t-1] = seqs
	}
	if seqs > m.MaxSeqs {
		m.MaxSeqs = seqs
	}
}

// Decision summarizes a whole network's outputs.
type Decision struct {
	// Reject is true iff at least one node rejected.
	Reject bool
	// RejectingIDs lists the IDs of rejecting nodes in ascending order.
	RejectingIDs []ID
	// Witness is a detected cycle from one rejecting node (the smallest ID),
	// nil when accepting.
	Witness []ID
	// MaxSeqsPerRound aggregates NodeMetrics.MaxSeqsPerRound over all nodes.
	MaxSeqsPerRound []int
	// MaxSeqs is the network-wide maximum sequences per message.
	MaxSeqs int
	// Switches sums NodeMetrics.Switches (rounds with a preemption) over
	// all nodes.
	Switches int
}

// Summarize folds per-node outputs (as returned by the network engine, one
// *Verdict per vertex) into a Decision. ids[v] is vertex v's identifier.
func Summarize(outputs []any, ids []ID) Decision {
	var d Decision
	var witnessFrom ID = -1
	for v, o := range outputs {
		// Every node returns a pointer to a Verdict it caches (boxing a
		// pointer into any does not allocate).
		verdict, ok := o.(*Verdict)
		if !ok {
			continue
		}
		if verdict.Reject {
			d.Reject = true
			d.RejectingIDs = append(d.RejectingIDs, ids[v])
			if witnessFrom == -1 || ids[v] < witnessFrom {
				witnessFrom = ids[v]
				d.Witness = verdict.Witness
			}
		}
		for t, s := range verdict.Metrics.MaxSeqsPerRound {
			for len(d.MaxSeqsPerRound) <= t {
				d.MaxSeqsPerRound = append(d.MaxSeqsPerRound, 0)
			}
			if s > d.MaxSeqsPerRound[t] {
				d.MaxSeqsPerRound[t] = s
			}
		}
		if verdict.Metrics.MaxSeqs > d.MaxSeqs {
			d.MaxSeqs = verdict.Metrics.MaxSeqs
		}
		d.Switches += verdict.Metrics.Switches
	}
	slices.Sort(d.RejectingIDs)
	// The winning node's Witness aliases its reusable per-node buffer,
	// which the next run on the same (pooled) instance overwrites; the
	// Decision must stand on its own — serving code marshals it after
	// releasing the instance — so detach the one that won.
	if d.Witness != nil {
		d.Witness = append([]ID(nil), d.Witness...)
	}
	return d
}
