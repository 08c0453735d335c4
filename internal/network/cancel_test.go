// Cancellation tests for RunProgramCtx: a cancelled run must abort within
// one round, surface as *ErrCanceled (transparent to errors.Is on the
// context error), and leave the Instance reusable — its next run
// byte-identical to a fresh one, the same contract the error-semantics
// tests pin for panics and bandwidth violations.
package network_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// cancelProg cancels its own run context from inside node 0's Send at a
// chosen round — the only way to hit an exact round deterministically (an
// external goroutine races the round loop).
type cancelProg struct {
	rounds int
	at     int // round whose Send triggers the cancellation
	cancel context.CancelFunc
}

func (p *cancelProg) Rounds(n, m int) int { return p.rounds }
func (p *cancelProg) NewNode(info network.NodeInfo) network.Node {
	return &cancelNode{p: p, id: info.ID}
}

type cancelNode struct {
	p  *cancelProg
	id network.ID
}

func (cn *cancelNode) Send(round int, out [][]byte) {
	if cn.id == 0 && round == cn.p.at {
		cn.p.cancel()
	}
	for pt := range out {
		out[pt] = []byte{byte(round)}
	}
}
func (cn *cancelNode) Receive(int, [][]byte) {}
func (cn *cancelNode) Output() any           { return nil }

// TestCancelMidRun cancels at randomized rounds and demands the one-round
// abort contract: ErrCanceled within one round of the trigger, then a
// reused run byte-identical to fresh. Rand is deterministically seeded so
// failures reproduce.
func TestCancelMidRun(t *testing.T) {
	g := graph.CompleteBipartite(5, 5)
	rng := rand.New(rand.NewSource(17))
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		const rounds = 20
		for trial := 0; trial < 8; trial++ {
			at := 1 + rng.Intn(rounds)
			ctx, cancel := context.WithCancel(context.Background())
			prog := &cancelProg{rounds: rounds, at: at, cancel: cancel}
			_, err := nw.RunProgramCtx(ctx, prog, uint64(trial))
			cancel()
			if err == nil {
				t.Fatalf("trial %d (at=%d): cancelled run returned no error", trial, at)
			}
			var ce *network.ErrCanceled
			if !errors.As(err, &ce) {
				t.Fatalf("trial %d: error is %T, want *ErrCanceled: %v", trial, err, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: ErrCanceled must unwrap to context.Canceled: %v", trial, err)
			}
			// The trigger fires inside round at's Send; the abort lands at
			// the next barrier: round at completes, nothing beyond at+1.
			if ce.Round < at-1 || ce.Round > at+1 {
				t.Fatalf("trial %d: cancelled at round %d but aborted after round %d (want in [%d,%d])",
					trial, at, ce.Round, at-1, at+1)
			}
			// The reused instance's next run must be byte-identical to a
			// fresh one — on every trial, so cancel points at different
			// rounds all recover.
			assertMatchesFresh(t, nw, g, uint64(100+trial), 0)
		}
	})
}

// TestCancelBeforeRun: a context that is already done aborts before any
// state is touched — Round 0, the deadline error visible through errors.Is,
// and the instance still warm and correct.
func TestCancelBeforeRun(t *testing.T) {
	g := graph.Cycle(12)
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err = nw.RunProgramCtx(ctx, &core.Tester{K: 5, Reps: 2}, 1)
		var ce *network.ErrCanceled
		if !errors.As(err, &ce) || ce.Round != 0 {
			t.Fatalf("pre-cancelled run: got %v, want ErrCanceled at round 0", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ErrCanceled must unwrap to the context error: %v", err)
		}
		assertMatchesFresh(t, nw, g, 2, 0)
	})
}

// TestCancelAfterFailure: a run that records a node failure before being
// cancelled must still report ErrCanceled (cancellation wins — which
// failures a cut-short run sees depends on where it was cut), and the next
// run must not leak the recorded failure state.
func TestCancelAfterFailure(t *testing.T) {
	g := graph.Path(4)
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Node 3 panics at round 1; node 0 cancels at round 1 too. The
		// engine sees both at the same barrier; the contract is
		// ErrCanceled and clean reuse.
		prog := &cancelPanicProg{rounds: 6, cancelAt: 1, panicAt: 1, cancel: cancel}
		_, err = nw.RunProgramCtx(ctx, prog, 1)
		if err == nil {
			t.Fatal("expected an error")
		}
		var ce *network.ErrCanceled
		if !errors.As(err, &ce) {
			t.Fatalf("cancellation must take precedence, got %T: %v", err, err)
		}
		assertMatchesFresh(t, nw, g, 3, 0)
	})
}

// cancelPanicProg combines a Send panic on the highest node with a
// cancellation triggered by node 0 in the same round.
type cancelPanicProg struct {
	rounds            int
	cancelAt, panicAt int
	cancel            context.CancelFunc
}

func (p *cancelPanicProg) Rounds(n, m int) int { return p.rounds }
func (p *cancelPanicProg) NewNode(info network.NodeInfo) network.Node {
	return &cancelPanicNode{p: p, id: info.ID, n: info.N}
}

type cancelPanicNode struct {
	p  *cancelPanicProg
	id network.ID
	n  int
}

func (cn *cancelPanicNode) Send(round int, out [][]byte) {
	if cn.id == 0 && round == cn.p.cancelAt {
		cn.p.cancel()
	}
	if int(cn.id) == cn.n-1 && round == cn.p.panicAt {
		panic("boom")
	}
	for pt := range out {
		out[pt] = []byte{1}
	}
}
func (cn *cancelPanicNode) Receive(int, [][]byte) {}
func (cn *cancelPanicNode) Output() any           { return nil }

// TestConcurrentCancelsOneCompiled is the race job's cancellation case: N
// instances over ONE shared Compiled, each repeatedly cancelled from an
// external goroutine at arbitrary points, must neither race nor deadlock,
// and every instance must finish with a clean run identical to fresh.
func TestConcurrentCancelsOneCompiled(t *testing.T) {
	rng := xrand.New(23)
	g := graph.ConnectedGNM(32, 4*32, rng)
	t.Run(engineName, func(t *testing.T) {
		compiled, err := network.Compile(g, network.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := runOnce(g, &core.Tester{K: 5, Reps: 2}, network.Options{}, 7)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				inst, err := compiled.NewInstance(network.InstanceOptions{Workers: 1})
				if err != nil {
					t.Error(err)
					return
				}
				defer inst.Close()
				prog := &core.Tester{K: 7, Reps: 6}
				for it := 0; it < 10; it++ {
					ctx, cancel := context.WithCancel(context.Background())
					go func() { cancel() }() // races the round loop on purpose
					_, err := inst.RunProgramCtx(ctx, prog, uint64(it))
					cancel()
					if err != nil {
						var ce *network.ErrCanceled
						if !errors.As(err, &ce) {
							t.Errorf("instance %d run %d: %v", i, it, err)
							return
						}
					}
				}
				// After the churn, a clean run must match fresh exactly.
				got, err := inst.RunProgram(&core.Tester{K: 5, Reps: 2}, 7)
				if err != nil {
					t.Errorf("instance %d final run: %v", i, err)
					return
				}
				assertResultsEqual(t, 7, want, got)
			}(i)
		}
		wg.Wait()
	})
}

// TestRunCtxAllocFree locks the acceptance bar for the hook itself: a
// steady-state reused run through RunProgramCtx with a LIVE cancellable
// context (never fired) must still allocate nothing — the per-round check
// is a channel poll.
func TestRunCtxAllocFree(t *testing.T) {
	rng := xrand.New(5)
	g := graph.RandomTree(64, rng)
	t.Run(engineName, func(t *testing.T) {
		nw, err := network.New(g, network.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		prog := &core.Tester{K: 5, Reps: 4}
		seed := uint64(0)
		for ; seed < 5; seed++ { // warm arenas, node cache, and ctx.Done's lazy channel
			if _, err := nw.RunProgramCtx(ctx, prog, seed); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if _, err := nw.RunProgramCtx(ctx, prog, seed); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("steady-state RunProgramCtx allocates %.1f times; want 0", allocs)
		}
	})
}
