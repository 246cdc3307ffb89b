package geom

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkDistMatrix measures the O(n²) matrix fill with GOMAXPROCS
// pinned to the row's worker count (1 = the serial path), up to
// n = 2047, just under the daemon's default 2048-terminal limit. B/op
// is the packed triangle, 8·n(n+1)/2 bytes. On a
// multi-core host the parallel rows amortize; with fewer cores than
// workers they also measure scheduling overhead.
func BenchmarkDistMatrix(b *testing.B) {
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, n := range []int{250, 500, 1000, 2047} {
		pts := randPoints(rand.New(rand.NewSource(29)), n)
		for _, w := range workerSet {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					NewDistMatrix(pts, Manhattan)
				}
			})
		}
	}
}
