package ordmap_test

import (
	"testing"

	"udbench/internal/datagen"
	"udbench/internal/ordmap"
)

// BenchmarkMapGet is a point lookup of one of 12 000 order ids (the
// orders collection at scale factor 1) from parallel readers.
func BenchmarkMapGet(b *testing.B) {
	const n = 12000
	m := ordmap.New[int](1)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = datagen.OrderID(i + 1)
		m.GetOrInsert(keys[i], func() int { return i })
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := m.Get(keys[i%n]); !ok {
				b.Error("missing key")
				return
			}
			i += 7919
		}
	})
}
