package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkEdgeStreamPrefix measures draining only the first n-1 edges
// (a Kruskal-style consumer's best case) against the full sort the
// eager path always pays. edges/op reports the consumed prefix.
func BenchmarkEdgeStreamPrefix(b *testing.B) {
	for _, n := range []int{100, 250, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			base := NewEdgeStreamFrom(randomEdges(rng, n)).edges
			work := make([]packedEdge, len(base))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, base)
				s := newStream(work)
				for k := 0; k < n-1; k++ {
					if _, ok := s.Next(); !ok {
						b.Fatal("stream ended early")
					}
				}
			}
			b.ReportMetric(float64(n-1), "edges/op")
		})
	}
}

// BenchmarkParallelSortEdges measures the stream's full-sort fallback
// kernel over packed entries with GOMAXPROCS pinned to the row's worker
// count (1 = the serial slices.SortFunc path).
func BenchmarkParallelSortEdges(b *testing.B) {
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, n := range []int{250, 500, 1000} {
		rng := rand.New(rand.NewSource(19))
		base := NewEdgeStreamFrom(randomEdges(rng, n)).edges
		for _, w := range workerSet {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				work := make([]packedEdge, len(base))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, base)
					parallelSort(work)
				}
			})
		}
	}
}
