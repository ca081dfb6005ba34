package volcano

import (
	"context"
	"fmt"
	"sync"
)

// Exchange is Volcano's parallelism operator: it encapsulates
// partitioned execution behind the ordinary iterator interface, so any
// plan fragment can be parallelized "without changing its code"
// (Graefe, SIGMOD 1990; cited as [31] in the paper). NewExchange takes
// a fragment factory; Open launches one producer goroutine per
// partition, each draining its own fragment instance into a shared
// queue that Next consumes.
//
// Output order across partitions is nondeterministic, as with any
// exchange.
type Exchange struct {
	Degree  int
	Factory func(part int) (Iterator, error)
	// QueueLen bounds the flow-control queue (default 64).
	QueueLen int

	// ctx, when bound (see Bind), drives producer shutdown: producers
	// select on ctx.Done as well as the exchange's own cancel channel,
	// so a cancelled query drains its goroutines without waiting for
	// the consumer to call Close. Bind before Open.
	ctx context.Context

	ch     chan exchItem
	cancel chan struct{}
	wg     sync.WaitGroup
	open   bool
	closed bool
}

type exchItem struct {
	item Item
	err  error
}

// NewExchange builds an exchange of the given degree over the fragment
// factory.
func NewExchange(degree int, factory func(part int) (Iterator, error)) *Exchange {
	if degree < 1 {
		degree = 1
	}
	return &Exchange{Degree: degree, Factory: factory}
}

// Open implements Iterator: starts the producer goroutines.
func (e *Exchange) Open() error {
	qlen := e.QueueLen
	if qlen <= 0 {
		qlen = 64
	}
	e.ch = make(chan exchItem, qlen)
	e.cancel = make(chan struct{})
	e.closed = false
	for part := 0; part < e.Degree; part++ {
		e.wg.Add(1)
		go e.produce(part)
	}
	go func() {
		e.wg.Wait()
		close(e.ch)
	}()
	e.open = true
	return nil
}

// BindContext implements ContextBinder. Producers launched by a later
// Open select on ctx.Done, so cancellation alone — without any Close
// ordering — drains the exchange's goroutines.
func (e *Exchange) BindContext(ctx context.Context) { e.ctx = ctx }

// ctxDone returns the bound context's done channel, or nil (which
// never fires in a select) when unbound.
func (e *Exchange) ctxDone() <-chan struct{} {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Done()
}

func (e *Exchange) produce(part int) {
	defer e.wg.Done()
	it, err := e.Factory(part)
	if err != nil {
		e.send(exchItem{err: fmt.Errorf("volcano: exchange partition %d: %w", part, err)})
		return
	}
	// Fragments are created per Open, after any Bind walk over the
	// plan, so the query context is threaded into them here.
	if e.ctx != nil {
		if cb, ok := it.(ContextBinder); ok {
			cb.BindContext(e.ctx)
		}
	}
	if err := it.Open(); err != nil {
		e.send(exchItem{err: fmt.Errorf("volcano: exchange partition %d open: %w", part, err)})
		return
	}
	defer it.Close()
	for {
		if e.ctx != nil && e.ctx.Err() != nil {
			// Cancellation-driven exit: do not produce past a dead
			// query even if the queue has room.
			return
		}
		item, err := it.Next()
		if err == Done {
			return
		}
		if err != nil {
			e.send(exchItem{err: err})
			return
		}
		if !e.send(exchItem{item: item}) {
			return
		}
	}
}

// send delivers to the consumer unless the exchange was cancelled —
// by Close (the consumer walked away) or by the bound query context.
func (e *Exchange) send(x exchItem) bool {
	select {
	case e.ch <- x:
		return true
	case <-e.cancel:
		return false
	case <-e.ctxDone():
		return false
	}
}

// Next implements Iterator. With a bound context, a cancelled query
// returns the context's error rather than Done — a dead query must not
// look like a cleanly exhausted stream.
func (e *Exchange) Next() (Item, error) {
	if !e.open {
		return nil, ErrNotOpen
	}
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		select {
		case x, ok := <-e.ch:
			return e.deliver(x, ok)
		case <-e.ctx.Done():
			return nil, e.ctx.Err()
		}
	}
	x, ok := <-e.ch
	return e.deliver(x, ok)
}

func (e *Exchange) deliver(x exchItem, ok bool) (Item, error) {
	if !ok {
		return nil, Done
	}
	if x.err != nil {
		return nil, x.err
	}
	return x.item, nil
}

// Close implements Iterator: cancels producers and waits for them.
func (e *Exchange) Close() error {
	if !e.open || e.closed {
		e.open = false
		return nil
	}
	e.closed = true
	e.open = false
	close(e.cancel)
	// Drain until producers exit so none block on send.
	for range e.ch {
	}
	return nil
}

// PartitionSlice splits items round-robin into n buckets; the standard
// way to feed an Exchange's fragments.
func PartitionSlice(items []Item, n int) [][]Item {
	if n < 1 {
		n = 1
	}
	out := make([][]Item, n)
	for i, item := range items {
		out[i%n] = append(out[i%n], item)
	}
	return out
}
