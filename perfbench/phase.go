package main

import "cycledetect/internal/network"

// phaseProgram splits one engine run into engine time and node time from
// outside the engine. It wraps the real tester or detector: its nodes
// forward Send, Receive, Output and Reset to the real nodes (so the
// reusable-node fast path stays), and it times the inner NewNode calls.
//
// The clock is read only at phase boundaries: when vertex 0 enters a phase
// and when vertex n-1 leaves it — four reads per round instead of two per
// node. That brackets a phase only when the engine visits vertices 0..n-1 in
// order, one at a time, which a single-worker BSP instance does (serve runs
// NetworkWorkers 1; a 2-worker sweep on 2 cores gives each instance one
// worker). Every call checks that order; when it does not hold the split is
// marked broken and reported as unavailable.
//
// Spans recorded under the run span: network.prepare (run start to the
// first node call), core.node_build or core.node_reset, then per round
// core.send, network.deliver (last Send to first Receive) and core.recv,
// and core.output at the end. The run span's self time is the round-loop
// residue (network.loop_ms).
type phaseProgram struct {
	inner network.Program
	n     int

	rec      *recorder
	run      int32 // span of the enclosing RunProgramCtx call
	prepared bool  // the first node call of this run has happened

	kind    phaseKind
	next    int   // vertex expected next within the current phase
	start   int64 // when vertex 0 entered the current phase
	sendEnd int64 // when the last Send of the current round returned
	broken  bool
}

type phaseKind uint8

const (
	phaseBuild phaseKind = iota
	phaseReset
	phaseSend
	phaseRecv
	phaseOutput
)

var phaseSpan = [...]string{
	phaseBuild:  "core.node_build",
	phaseReset:  "core.node_reset",
	phaseSend:   "core.send",
	phaseRecv:   "core.recv",
	phaseOutput: "core.output",
}

func newPhaseProgram(inner network.Program) *phaseProgram {
	return &phaseProgram{inner: inner}
}

// arm binds the next run to its span. Call it right before RunProgramCtx.
func (p *phaseProgram) arm(rec *recorder, run int32) {
	p.rec, p.run = rec, run
	p.prepared = false
	p.next = 0
}

func (p *phaseProgram) Rounds(n, m int) int { return p.inner.Rounds(n, m) }

func (p *phaseProgram) NewNode(info network.NodeInfo) network.Node {
	v := p.next
	if v == 0 {
		p.n = info.N
	}
	p.enter(phaseBuild, v, info.ID)
	inner := p.inner.NewNode(info)
	p.leave(phaseBuild, v)
	base := phaseNode{p: p, inner: inner, v: v}
	if r, ok := inner.(network.ReusableNode); ok {
		return &phaseResetNode{phaseNode: base, reset: r}
	}
	return &base
}

// enter runs before vertex v's call in phase k. id is the node's ID where
// the call carries one: the workloads use the default IDs, so ID v must be
// vertex v.
func (p *phaseProgram) enter(k phaseKind, v int, id network.ID) {
	if id >= 0 && id != network.ID(v) {
		p.broken = true
	}
	if v != 0 {
		if p.kind != k || p.next != v {
			p.broken = true
		}
		return
	}
	t := p.rec.now()
	if !p.prepared {
		p.prepared = true
		p.rec.add("network.prepare", p.run, p.rec.spans[p.run].Start, t)
	}
	if p.next != 0 {
		p.broken = true
	}
	if k == phaseRecv {
		p.rec.add("network.deliver", p.run, p.sendEnd, t)
	}
	p.kind, p.start = k, t
}

// leave runs after vertex v's call in phase k.
func (p *phaseProgram) leave(k phaseKind, v int) {
	p.next = v + 1
	if v != p.n-1 {
		return
	}
	t := p.rec.now()
	p.rec.add(phaseSpan[k], p.run, p.start, t)
	if k == phaseSend {
		p.sendEnd = t
	}
	p.next = 0
}

type phaseNode struct {
	p     *phaseProgram
	inner network.Node
	v     int
}

func (n *phaseNode) Send(round int, out [][]byte) {
	n.p.enter(phaseSend, n.v, -1)
	n.inner.Send(round, out)
	n.p.leave(phaseSend, n.v)
}

func (n *phaseNode) Receive(round int, in [][]byte) {
	n.p.enter(phaseRecv, n.v, -1)
	n.inner.Receive(round, in)
	n.p.leave(phaseRecv, n.v)
}

func (n *phaseNode) Output() any {
	n.p.enter(phaseOutput, n.v, -1)
	o := n.inner.Output()
	n.p.leave(phaseOutput, n.v)
	return o
}

// phaseResetNode is a phaseNode over a reusable node; only these make the
// engine take its reuse path, exactly as the unwrapped nodes would.
type phaseResetNode struct {
	phaseNode
	reset network.ReusableNode
}

func (n *phaseResetNode) Reset(info network.NodeInfo) {
	n.p.enter(phaseReset, n.v, info.ID)
	n.reset.Reset(info)
	n.p.leave(phaseReset, n.v)
}
