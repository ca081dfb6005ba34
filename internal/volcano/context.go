package volcano

import (
	"context"

	"revelation/internal/qtrace"
)

// ContextBinder is implemented by operators that observe a query
// context: once bound, the operator's Next returns the context's error
// promptly after cancellation or deadline expiry, and any goroutines it
// owns (Exchange producers) exit without waiting for a consumer.
//
// BindContext must be called before Open; rebinding an open operator is
// a data race. The usual entry point is Bind, which walks a whole plan.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// Bind installs ctx on every operator of the plan rooted at it that
// implements ContextBinder, walking the tree through the same operator
// descriptions Explain uses. Operators that pre-date the lifecycle
// machinery are simply skipped: they still stop promptly because their
// sources and consumers observe the context.
//
// Bind returns it, so plans read:
//
//	plan := volcano.Bind(ctx, assembly.New(...))
//
// Call Bind before Open. A nil ctx is a no-op.
func Bind(ctx context.Context, it Iterator) Iterator {
	if ctx == nil || it == nil {
		return it
	}
	bindTree(ctx, it)
	return it
}

func bindTree(ctx context.Context, it Iterator) {
	if cb, ok := it.(ContextBinder); ok {
		cb.BindContext(ctx)
	}
	_, inputs := describe(it)
	for _, in := range inputs {
		if in != nil {
			bindTree(ctx, in)
		}
	}
}

// DrainCtx is the traced query entry point: it opens a plan-level span
// (layer "plan") covering open → drain → close, binds the span-carrying
// context to every operator of the plan, and pulls all items. With no
// span in ctx it degrades to Bind + Drain with zero overhead.
func DrainCtx(ctx context.Context, it Iterator) ([]Item, error) {
	sp, ctx := qtrace.Start(ctx, qtrace.LayerPlan, "drain")
	defer sp.End()
	Bind(ctx, it)
	return Drain(it)
}

// boundCtx is the embeddable ContextBinder state shared by the
// operators in this package. The zero value is unbound (no checks).
type boundCtx struct {
	ctx context.Context
}

// BindContext implements ContextBinder.
func (b *boundCtx) BindContext(ctx context.Context) { b.ctx = ctx }

// err returns the bound context's error, or nil when unbound or live.
func (b *boundCtx) err() error {
	if b.ctx == nil {
		return nil
	}
	return b.ctx.Err()
}
