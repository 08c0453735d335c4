// Tests for the per-run metrics collector hook: correctness of the
// RunMetrics records across outcomes (success, cancellation, node failure)
// and the allocation invariant — an armed collector must
// not cost the steady-state run path a single heap allocation.
package network_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// captureCollector records every RunMetrics it receives; safe for
// concurrent use like a server-wide collector would be.
type captureCollector struct {
	mu   sync.Mutex
	runs []network.RunMetrics
}

func (c *captureCollector) RecordRun(m network.RunMetrics) {
	c.mu.Lock()
	c.runs = append(c.runs, m)
	c.mu.Unlock()
}

func (c *captureCollector) last(t *testing.T) network.RunMetrics {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) == 0 {
		t.Fatal("collector received no records")
	}
	return c.runs[len(c.runs)-1]
}

// TestRunCollectorSuccess: a successful run reports the same rounds,
// message count, bit volume, and bandwidth high-water the Result's Stats
// carry.
func TestRunCollectorSuccess(t *testing.T) {
	g := graph.ConnectedGNM(48, 4*48, xrand.New(7))
	comp, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run(engineName, func(t *testing.T) {
		col := &captureCollector{}
		inst, err := comp.NewInstance(network.InstanceOptions{Collector: col})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		res, err := inst.RunProgram(&core.Tester{K: 5, Reps: 2}, 3)
		if err != nil {
			t.Fatal(err)
		}
		m := col.last(t)
		if m.Canceled || m.Failed {
			t.Errorf("clean run flagged: %+v", m)
		}
		if m.Rounds != res.Stats.Rounds || m.Messages != res.Stats.MessagesSent ||
			m.Bits != res.Stats.TotalBits || m.MaxMessageBits != res.Stats.MaxMessageBits {
			t.Errorf("metrics %+v do not match stats %+v", m, res.Stats)
		}
		if m.Messages <= 0 || m.Rounds <= 0 {
			t.Errorf("implausible run record: %+v", m)
		}
	})
}

// TestRunCollectorCanceled: a pre-canceled context records nothing (the
// run never started); a mid-run cancellation records Canceled with the
// abort round.
func TestRunCollectorCanceled(t *testing.T) {
	g := graph.Cycle(32)
	comp, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	col := &captureCollector{}
	inst, err := comp.NewInstance(network.InstanceOptions{Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.RunProgramCtx(pre, &core.Tester{K: 5, Reps: 2}, 1); err == nil {
		t.Fatal("expected cancellation error")
	}
	col.mu.Lock()
	n := len(col.runs)
	col.mu.Unlock()
	if n != 0 {
		t.Fatalf("pre-canceled run recorded %d records, want 0 (nothing ran)", n)
	}

	// A program that cancels its own context inside round 2's Send hits
	// the real mid-run abort path deterministically.
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	_, err = inst.RunProgramCtx(ctx, &cancelProg{rounds: 5, at: 2, cancel: cancelRun}, 1)
	var ce *network.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCanceled from the mid-run cancellation, got %v", err)
	}
	m := col.last(t)
	if !m.Canceled || m.Failed {
		t.Errorf("mid-run cancel record = %+v, want Canceled", m)
	}
	if m.Rounds != ce.Round {
		t.Errorf("canceled run reports %d rounds, want the abort round %d", m.Rounds, ce.Round)
	}
	if m.Messages != 0 || m.Bits != 0 {
		t.Errorf("canceled run carries success stats: %+v", m)
	}
}

// TestRunCollectorFailed: a node panic records Failed; the recovery run
// afterwards records clean success (the collector sees the instance heal).
func TestRunCollectorFailed(t *testing.T) {
	g := graph.Cycle(24)
	comp, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run(engineName, func(t *testing.T) {
		col := &captureCollector{}
		inst, err := comp.NewInstance(network.InstanceOptions{Collector: col})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		bad := &phasePanic{rounds: 3, sendAt: map[network.ID]int{3: 1}}
		if _, err := inst.RunProgram(bad, 1); err == nil {
			t.Fatal("expected the node panic to fail the run")
		}
		m := col.last(t)
		if !m.Failed || m.Canceled {
			t.Errorf("failed run record = %+v, want Failed", m)
		}
		prog := &core.Tester{K: 5, Reps: 2}
		if _, err := inst.RunProgram(prog, 2); err != nil {
			t.Fatalf("recovery run: %v", err)
		}
		m = col.last(t)
		if m.Failed || m.Canceled || m.Rounds == 0 {
			t.Errorf("recovery run record = %+v, want clean success", m)
		}
	})
}

// countingCollector is the cheapest realistic collector — a few atomic-free
// field bumps — used to price the armed hook on the hot path.
type countingCollector struct {
	runs, rounds, messages int64
}

func (c *countingCollector) RecordRun(m network.RunMetrics) {
	c.runs++
	c.rounds += int64(m.Rounds)
	c.messages += m.Messages
}

// TestRunCollectorAllocFree pins the tentpole pricing claim: steady-state
// reused runs stay at 0 allocs/op with a collector ARMED.
// RunMetrics travels by value into the interface call; if it ever regresses
// to a pointer (or the record path boxes), this fails.
func TestRunCollectorAllocFree(t *testing.T) {
	rng := xrand.New(5)
	g := graph.RandomTree(64, rng)
	comp, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run(engineName, func(t *testing.T) {
		col := &countingCollector{}
		inst, err := comp.NewInstance(network.InstanceOptions{Collector: col})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		prog := &core.Tester{K: 5, Reps: 4}
		seed := uint64(0)
		for ; seed < 5; seed++ { // warm arenas, rank buffers, node cache
			if _, err := inst.RunProgram(prog, seed); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if _, err := inst.RunProgram(prog, seed); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("armed-collector RunProgram allocates %.1f times; want 0", allocs)
		}
		if col.runs == 0 {
			t.Fatal("collector never invoked")
		}
	})
}

// TestInstanceWorkers pins the width accessor the sweep handshake reads:
// instances report their clamped pool width.
func TestInstanceWorkers(t *testing.T) {
	g := graph.Cycle(16)
	comp, err := network.Compile(g, network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ ask, want int }{
		{2, 2},
		{1, 1},
		{1 << 20, 16}, // clamped to n
	}
	for _, c := range cases {
		inst, err := comp.NewInstance(network.InstanceOptions{Workers: c.ask})
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.Workers(); got != c.want {
			t.Errorf("workers=%d: Workers() = %d, want %d", c.ask, got, c.want)
		}
		inst.Close()
	}
}
