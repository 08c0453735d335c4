// Package ctxflow is the golden suite for the ctxflow analyzer.
package ctxflow

import "context"

type holder struct {
	ctx context.Context // want `stored in a struct field`
}

func Run(n int) int { return n }

func RunCtx(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

type engine struct{}

func (e *engine) Sweep() {}

func (e *engine) SweepCtx(ctx context.Context) { _ = ctx }

func bad(ctx context.Context, e *engine) int {
	_ = context.Background() // want `context.Background inside a function that already has a context`
	_ = context.TODO()       // want `context.TODO inside a function that already has a context`
	e.Sweep()                // want `use SweepCtx`
	return Run(3)            // want `use RunCtx`
}

// badNested: the context is on the outer function; the literal inside is
// still part of its cancellation scope.
func badNested(ctx context.Context) func() int {
	return func() int {
		return Run(4) // want `use RunCtx`
	}
}

func good(ctx context.Context, e *engine) int {
	e.SweepCtx(ctx)
	return RunCtx(ctx, 3)
}

// noCtx has no context in scope, so the non-ctx variants are fine.
func noCtx(e *engine) int {
	e.Sweep()
	return Run(1)
}
