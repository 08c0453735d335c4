package network

// Fault injection: a FaultPlan on InstanceOptions lets resilience tests (and
// chaos-mode servers) force per-node panics, bandwidth violations, and
// cancellations into otherwise-healthy runs, at chosen rounds. The hooks
// ride the engine's existing failure machinery — an injected panic goes
// through the same catchNode path a real one does, an injected bandwidth
// violation is recorded in the same delivery phase a real oversized payload
// would be, and an injected cancellation cancels the run's own context — so
// everything the engine guarantees about real faults (deterministic error
// selection, instance reusability, byte-identical post-fault runs) holds for
// injected ones by construction. A nil plan costs nothing: the only hot-path
// overhead is one bool load per guarded site.

import (
	"context"
	"fmt"
	"sync/atomic"

	"cycledetect/internal/xrand"
)

// FaultKind enumerates the injectable engine faults.
type FaultKind uint8

const (
	// FaultPanic makes the chosen node's Send panic at the chosen round.
	FaultPanic FaultKind = iota + 1
	// FaultBandwidth records a forced per-message budget violation at the
	// chosen (round, node), as if an oversized payload arrived there.
	FaultBandwidth
	// FaultCancel cancels the run's context once the chosen round is
	// reached, as if the client had abandoned the request mid-run.
	FaultCancel
)

func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultBandwidth:
		return "bandwidth"
	case FaultCancel:
		return "cancel"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultDecision is one run's injected fault: what, when, where. Round is
// 1-based and clamped into [1, rounds]; Node is a vertex index clamped
// into [0, n).
type FaultDecision struct {
	Kind  FaultKind
	Round int
	Node  int
}

// FaultPlan decides, per run, whether to inject a fault. One plan may be
// shared by many Instances (a server passes the same plan to every
// instance it spawns); Injected counts across all of them.
type FaultPlan struct {
	// Decide inspects one run — its seed, the graph's vertex count, and
	// the program's round count — and returns the fault to inject, if
	// any. It must be pure (the same arguments always yield the same
	// decision, so a faulted run can be replayed) and safe for concurrent
	// use from many instances.
	Decide func(seed uint64, n, rounds int) (FaultDecision, bool)

	injected atomic.Int64
}

// Injected returns how many runs had a fault injected, across every
// Instance sharing the plan.
func (fp *FaultPlan) Injected() int64 { return fp.injected.Load() }

// RandomFaults returns a Decide func that faults roughly `rate` of runs
// (0 disables, >= 1 faults every run), cycling kind, round, and node
// pseudo-randomly. The decision is a pure hash of the run seed, so the
// same seed always yields the same fault and a failure found under a
// random plan reproduces exactly.
func RandomFaults(rate float64) func(seed uint64, n, rounds int) (FaultDecision, bool) {
	if rate <= 0 {
		return func(uint64, int, int) (FaultDecision, bool) { return FaultDecision{}, false }
	}
	if rate > 1 {
		rate = 1
	}
	thresh := uint64(rate * (1 << 32))
	return func(seed uint64, n, rounds int) (FaultDecision, bool) {
		if n < 1 || rounds < 1 {
			return FaultDecision{}, false
		}
		h := xrand.Mix64(seed ^ 0x6661756c74706c6e) // "faultpln"
		if h&0xFFFFFFFF >= thresh {
			return FaultDecision{}, false
		}
		h = xrand.Mix64(h)
		kinds := [3]FaultKind{FaultPanic, FaultBandwidth, FaultCancel}
		return FaultDecision{
			Kind:  kinds[h%3],
			Round: 1 + int((h>>8)%uint64(rounds)),
			Node:  int((h >> 40) % uint64(n)),
		}, true
	}
}

// ErrInjected marks a run error as the product of fault injection rather
// than the program's own behavior. It wraps the error the fault produced
// (the panic's error, the fabricated ErrBandwidth, context.Canceled), so
// errors.Is/As see through to it.
type ErrInjected struct {
	Kind FaultKind
	Err  error
}

func (e *ErrInjected) Error() string {
	return fmt.Sprintf("injected %s fault: %v", e.Kind, e.Err)
}

// Unwrap exposes the underlying fault error to errors.Is/As.
func (e *ErrInjected) Unwrap() error { return e.Err }

// Transient reports that the failure was injected, not earned, so retry
// layers (sweep.IsTransient) may retry it.
func (e *ErrInjected) Transient() bool { return true }

// injectedPanic is the value an injected FaultPanic panics with;
// panicError recognizes it and tags the resulting error as injected.
type injectedPanic struct{}

func (injectedPanic) String() string { return "injected fault" }

// armFault consults the plan for this run and arms the engine hooks. It is
// called after prepare (the round count is needed) and before the engine
// loop starts; the worker pool's phase hand-off orders the writes before any
// node reads them. For FaultCancel it derives a cancellable context the run
// executes under, so the injected cancellation is indistinguishable from a
// real client abandon.
func (nw *Instance) armFault(ctx context.Context, seed uint64, rounds int) context.Context {
	nw.faultOn = false
	plan := nw.iopts.Faults
	if plan == nil || plan.Decide == nil || rounds < 1 {
		return ctx
	}
	n := nw.c.g.N()
	d, ok := plan.Decide(seed, n, rounds)
	if !ok {
		return ctx
	}
	if d.Round < 1 {
		d.Round = 1
	}
	if d.Round > rounds {
		d.Round = rounds
	}
	if d.Node < 0 || d.Node >= n {
		d.Node = ((d.Node % n) + n) % n
	}
	nw.fault = d
	nw.faultOn = true
	plan.injected.Add(1)
	if d.Kind == FaultCancel {
		cctx, cancel := context.WithCancelCause(ctx)
		nw.faultCancel = cancel
		return cctx
	}
	return ctx
}

// disarmFault clears the armed fault after the run; the run is synchronous
// and every phase has passed its barrier by the time it is called, so no
// worker can still observe the stale decision.
func (nw *Instance) disarmFault() {
	nw.faultOn = false
	if nw.faultCancel != nil {
		nw.faultCancel(nil)
		nw.faultCancel = nil
	}
}

// fireFaultCancel cancels the run's derived context with an ErrInjected
// cause. Only the first cause sticks — and it unwraps to context.Canceled,
// so the usual cancellation checks (errors.Is(err, context.Canceled)) still
// hold.
//
//ckvet:allocs fault-injection path, never on a production run
func (nw *Instance) fireFaultCancel() {
	nw.faultCancel(&ErrInjected{Kind: FaultCancel, Err: context.Canceled})
}

// injectedBandwidthErr fabricates the violation FaultBandwidth records at
// (v, round): an over-budget payload arriving at v from its first
// neighbor, shaped exactly like a real receiver-side detection — same
// error type, recorded in the same phase — so the deterministic error
// selection treats it identically to the real thing.
//
//ckvet:allocs fault-injection path, never on a production run
func (nw *Instance) injectedBandwidthErr(v, round int) error {
	ids := nw.c.topo.ids
	from := ids[v]
	if ns := nw.c.g.Neighbors(v); len(ns) > 0 {
		from = ids[int(ns[0])]
	}
	budget := nw.c.bandwidthBits
	return &ErrInjected{Kind: FaultBandwidth, Err: &ErrBandwidth{
		Round: round, From: from, To: ids[v],
		Bits: budget + 8, BudgetBit: budget,
	}}
}
