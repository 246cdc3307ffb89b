package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEdgeStreamPrefix measures draining only the first n-1 edges
// (a Kruskal-style consumer's best case) against the full sort the
// eager path always pays. edges/op reports the consumed prefix.
func BenchmarkEdgeStreamPrefix(b *testing.B) {
	for _, n := range []int{100, 250, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			edges := randomEdges(rng, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewEdgeStreamFrom(edges)
				for k := 0; k < n-1; k++ {
					if _, ok, _ := s.Next(nil, nil); !ok {
						b.Fatal("stream ended early")
					}
				}
			}
			b.ReportMetric(float64(n-1), "edges/op")
		})
	}
}
