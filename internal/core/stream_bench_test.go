package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBKRUSStream measures dense BKRUS over the lazy edge stream,
// which orders only the prefix of the complete-graph edges the scan
// actually consumes. edges/op reports that consumed prefix (the
// candidate edges examined per construction) next to the ~n²/2 total.
func benchmarkBKRUSBuild(b *testing.B, nodes int, eps float64) {
	in := randomInstance(rand.New(rand.NewSource(13)), nodes-1, 1000)
	in.DistMatrix() // prebuild: measure construction, not geometry setup
	bounds := UpperOnly(in, eps)
	c := NewCounters(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BKRUSBuild(context.Background(), in, bounds, Config{Counters: c}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.EdgesExamined.Load())/float64(b.N), "edges/op")
}

// Two ε regimes: tight bounds (0.2) reject many merges and drain deep
// into the edge order — the lazy stream's hardest case — while loose
// bounds (0.5) accept merges early and consume only a short prefix,
// where skipping the full sort pays the most.
var benchEps = []float64{0.2, 0.5}

func BenchmarkBKRUSStream(b *testing.B) {
	for _, nodes := range []int{100, 250, 500, 1000} {
		for _, eps := range benchEps {
			b.Run(fmt.Sprintf("n=%d/eps=%g", nodes, eps), func(b *testing.B) { benchmarkBKRUSBuild(b, nodes, eps) })
		}
	}
}
