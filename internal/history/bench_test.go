package history

import (
	"fmt"
	"testing"
)

// BenchmarkHistoryLookup measures a Lookup over a populated store:
// half the queries hit their exact key, half fall back to the
// nearest-neighbor scan.
func BenchmarkHistoryLookup(b *testing.B) {
	s := NewMemStore()
	n := 0
	for ep := 0; ep < 8; ep++ {
		for size := -1; size < 13; size++ {
			for load := 0; load < 8; load++ {
				n++
				rec := Record{
					Key:        Key{Endpoint: fmt.Sprintf("endpoint-%d", ep), SizeClass: size, LoadClass: load},
					X:          []int{2 + n%30, 1 + n%8},
					Throughput: float64(1e8 + n),
				}
				if err := s.Add(rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	exact := Key{Endpoint: "endpoint-3", SizeClass: 6, LoadClass: 4}
	miss := Key{Endpoint: "endpoint-5", SizeClass: 40, LoadClass: 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := exact
		if i%2 == 1 {
			k = miss
		}
		if _, ok := s.Lookup(k); !ok {
			b.Fatal("lookup missed a populated endpoint")
		}
	}
}
