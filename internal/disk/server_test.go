package disk

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestServerReadCloseRace is the regression test for the Read/Close
// interaction: a Read racing with Close must either be serviced or
// fail with ErrClosed — never hang and never return a third outcome.
// Run under -race it also checks the queue handoff for data races.
func TestServerReadCloseRace(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		d := New(128)
		s := NewServer(d)
		var wg sync.WaitGroup
		unexpected := make(chan error, 8*16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, DefaultPageSize)
				for k := 0; k < 16; k++ {
					err := s.Read(PageID((g*16+k)%128), buf)
					if err != nil && !errors.Is(err, ErrClosed) {
						unexpected <- err
					}
				}
			}(g)
		}
		// Close concurrently with the in-flight readers.
		s.Close()
		wg.Wait()
		close(unexpected)
		for err := range unexpected {
			t.Fatalf("iter %d: read returned non-definitive error: %v", iter, err)
		}
		// After Close returns, every further Read is definitively closed.
		if err := s.Read(0, make([]byte, DefaultPageSize)); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: read after close = %v, want ErrClosed", iter, err)
		}
		// Double close must be idempotent.
		s.Close()
	}
}

func TestServerNoRetryOnPermanent(t *testing.T) {
	d := New(64)
	var calls int
	var mu sync.Mutex
	d.SetFault(func(p PageID, write bool) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return fmt.Errorf("%w: page %d", ErrPermanent, p)
	})
	s := NewServer(d)
	defer s.Close()
	if err := s.Read(3, make([]byte, DefaultPageSize)); !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
	if calls != 1 {
		t.Errorf("permanent error was retried: %d device attempts", calls)
	}
}
