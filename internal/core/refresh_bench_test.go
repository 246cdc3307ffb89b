package core

import (
	"context"
	"math/rand"
	"testing"
)

// benchmarkRefresh measures the full construction; the per-merge
// refresh dominates dense BKRUS at this size and the per-candidate DFS
// dominates sparse BKRUS, so these rows are the hot-path gate against
// the BENCH_PR9.json baseline. The "workers=1" sub-benchmark names are
// the baseline's row names: the refresh has been serial since the
// worker knob was retired (DESIGN.md §14).
func benchmarkRefresh(b *testing.B, nodes int, geo Geometry) {
	in := randomInstance(rand.New(rand.NewSource(13)), nodes-1, 1000)
	if geo == GeomDense {
		in.DistMatrix()
	}
	bounds := UpperOnly(in, 0.2)
	s := &Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BKRUSBuild(context.Background(), in, bounds, Config{Scratch: s, Geometry: geo}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBKRUSRefresh(b *testing.B) {
	b.Run("n=1000/workers=1", func(b *testing.B) { benchmarkRefresh(b, 1000, GeomDense) })
}

func BenchmarkBKRUSRefreshSparse(b *testing.B) {
	b.Run("n=10000/workers=1", func(b *testing.B) { benchmarkRefresh(b, 10000, GeomSparse) })
}
