// Fault-injection tests: an injected panic, bandwidth violation, or
// cancellation must surface as a recognizable ErrInjected, must bump the
// plan's counter, and must leave
// the Instance byte-identical to a fresh network on its next run — the
// same recovery contract real faults carry.
package network_test

import (
	"context"
	"errors"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

// seedPlan injects one fixed fault, but only for runs with the given
// seed, so the recovery run after the faulted one executes cleanly.
func seedPlan(kind network.FaultKind, round, node int, faultSeed uint64) *network.FaultPlan {
	return &network.FaultPlan{
		Decide: func(seed uint64, n, rounds int) (network.FaultDecision, bool) {
			if seed != faultSeed {
				return network.FaultDecision{}, false
			}
			return network.FaultDecision{Kind: kind, Round: round, Node: node}, true
		},
	}
}

// TestFaultInjectionRecovery drives every fault kind through a warm
// instance (cached nodes, mid-steady-state) and checks the
// error's type and tagging, the plan counter, and post-fault recovery.
func TestFaultInjectionRecovery(t *testing.T) {
	g := graph.CompleteBipartite(6, 6)
	const faultSeed = 7
	for _, kind := range []network.FaultKind{network.FaultPanic, network.FaultBandwidth, network.FaultCancel} {
		t.Run(kind.String()+"/"+engineName, func(t *testing.T) {
			plan := seedPlan(kind, 2, 3, faultSeed)
			c, err := network.Compile(g, network.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			nw, err := c.NewInstance(network.InstanceOptions{Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()

			// A clean run first: the plan must cost nothing when it
			// declines, and the fault then hits the cached-node path.
			warm := &core.Tester{K: 6, Reps: 1}
			if _, err := nw.RunProgram(warm, 1); err != nil {
				t.Fatalf("clean run under a declining plan failed: %v", err)
			}
			if plan.Injected() != 0 {
				t.Fatalf("declining plan counted %d injections", plan.Injected())
			}

			_, ferr := nw.RunProgram(&core.Tester{K: 6, Reps: 2}, faultSeed)
			if ferr == nil {
				t.Fatal("expected the injected fault to surface as an error")
			}
			var inj *network.ErrInjected
			if !errors.As(ferr, &inj) {
				t.Fatalf("want ErrInjected in the chain, got %T: %v", ferr, ferr)
			}
			if inj.Kind != kind {
				t.Fatalf("want kind %v, got %v (%v)", kind, inj.Kind, ferr)
			}
			if !inj.Transient() {
				t.Fatal("injected faults must be transient (retryable)")
			}
			if plan.Injected() != 1 {
				t.Fatalf("want 1 injection counted, got %d", plan.Injected())
			}
			switch kind {
			case network.FaultCancel:
				var ce *network.ErrCanceled
				if !errors.As(ferr, &ce) {
					t.Fatalf("injected cancel must surface as ErrCanceled, got %v", ferr)
				}
				if !errors.Is(ferr, context.Canceled) {
					t.Fatalf("injected cancel must unwrap to context.Canceled: %v", ferr)
				}
			case network.FaultBandwidth:
				var be *network.ErrBandwidth
				if !errors.As(ferr, &be) || be.Round != 2 {
					t.Fatalf("want a fabricated round-2 ErrBandwidth, got %v", ferr)
				}
			}

			// The recovery contract: the next run on the same instance is
			// byte-identical to a fresh network's.
			assertMatchesFresh(t, nw, g, 5, 0)
		})
	}
}

// TestFaultDecisionClamped: out-of-range decisions are clamped, not
// crashed on — a plan author who returns round 0 or node -1 still gets a
// well-formed injection.
func TestFaultDecisionClamped(t *testing.T) {
	g := graph.Path(4)
	plan := &network.FaultPlan{
		Decide: func(seed uint64, n, rounds int) (network.FaultDecision, bool) {
			return network.FaultDecision{Kind: network.FaultPanic, Round: 10_000, Node: -3}, true
		},
	}
	c, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := c.NewInstance(network.InstanceOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	_, ferr := nw.RunProgram(&core.Tester{K: 4, Reps: 1}, 1)
	var inj *network.ErrInjected
	if !errors.As(ferr, &inj) || inj.Kind != network.FaultPanic {
		t.Fatalf("want a clamped injected panic, got %v", ferr)
	}
}

// TestRandomFaultsDeterministic: the rate-based Decide is a pure function
// of the seed (replayable), and the rate endpoints behave.
func TestRandomFaultsDeterministic(t *testing.T) {
	half := network.RandomFaults(0.5)
	all := network.RandomFaults(1)
	none := network.RandomFaults(0)
	hits := 0
	for seed := uint64(0); seed < 200; seed++ {
		a, aok := half(seed, 10, 7)
		b, bok := half(seed, 10, 7)
		if a != b || aok != bok {
			t.Fatalf("seed %d: RandomFaults not deterministic", seed)
		}
		if aok {
			hits++
			if a.Round < 1 || a.Round > 7 || a.Node < 0 || a.Node >= 10 {
				t.Fatalf("seed %d: decision out of range: %+v", seed, a)
			}
		}
		if _, ok := all(seed, 10, 7); !ok {
			t.Fatalf("seed %d: rate 1 must always fault", seed)
		}
		if _, ok := none(seed, 10, 7); ok {
			t.Fatalf("seed %d: rate 0 must never fault", seed)
		}
	}
	if hits < 40 || hits > 160 {
		t.Fatalf("rate 0.5 faulted %d/200 runs", hits)
	}
}
