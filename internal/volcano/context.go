package volcano

import (
	"context"
	"errors"

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

// Drain pulls every item from it (between Open and Close) and returns
// them. It is the query entry point: a non-nil ctx is bound to every
// operator of the plan (Bind), and when it carries a span, Drain opens a
// plan-level child span (layer "plan") covering open → drain → close. A
// nil ctx binds nothing and traces nothing, at zero overhead.
func Drain(ctx context.Context, it Iterator) ([]Item, error) {
	sp, ctx := qtrace.Start(ctx, qtrace.LayerPlan, "drain")
	defer sp.End()
	Bind(ctx, it)
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Item
	for {
		item, err := it.Next()
		if errors.Is(err, Done) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, item)
	}
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
