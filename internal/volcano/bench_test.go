package volcano

import "testing"

func BenchmarkExchangeThroughput(b *testing.B) {
	const n = 20000
	items := make([]Item, n)
	for i := range items {
		items[i] = i
	}
	parts := PartitionSlice(items, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewExchange(4, func(part int) (Iterator, error) {
			return NewSlice(parts[part]), nil
		})
		cnt, err := Count(e)
		if err != nil || cnt != n {
			b.Fatalf("exchange = (%d, %v)", cnt, err)
		}
	}
}
