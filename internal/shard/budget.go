package shard

import (
	"context"
	"sync/atomic"
)

// Budget is a per-query retry allowance shared across shards. Every
// router-level retry — wherever it lands — draws one token, so a
// single flaky shard exhausts the query's patience instead of
// multiplying its own per-read retries while healthy shards wait.
// The zero Budget is empty; use NewBudget.
type Budget struct {
	left atomic.Int64
}

// NewBudget builds a budget of n retries. n < 0 means unlimited.
func NewBudget(n int) *Budget {
	b := &Budget{}
	if n < 0 {
		n = 1 << 40
	}
	b.left.Store(int64(n))
	return b
}

// Take consumes one retry token, reporting false when the budget is
// exhausted. Safe for concurrent use by per-shard fetchers.
func (b *Budget) Take() bool {
	for {
		n := b.left.Load()
		if n <= 0 {
			return false
		}
		if b.left.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

type budgetKey struct{}

// WithBudget attaches a retry budget to the query context. The router
// consults it on every retry; layers in between (pool, store,
// operator) pass the context through untouched.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom extracts the query's retry budget, or nil when the
// context carries none (retries then fall back to the router's own
// per-read policy bounds).
func BudgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}
