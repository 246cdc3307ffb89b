package engine

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

var sweepEps = []float64{0.05, 0.1, 0.2, 0.3, 0.5}

func sweepParams() []Params {
	ps := make([]Params, len(sweepEps))
	for i, e := range sweepEps {
		ps[i] = Params{Eps: e}
	}
	return ps
}

// BenchmarkBKRUSSweepPooled measures an ε-sweep through engine.Sweep,
// which pins one scratch (working buffers, sorted edges) across all runs.
// Compare allocs/op against BenchmarkBKRUSSweepFresh.
func BenchmarkBKRUSSweepPooled(b *testing.B) {
	in := bench.Random(3, 50, 1000)
	ps := sweepParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), "bkrus", in, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBKRUSSweepFresh is the same sweep with a fresh scratch per
// run — the allocation behaviour every caller had before the engine.
func BenchmarkBKRUSSweepFresh(b *testing.B) {
	in := bench.Random(3, 50, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range sweepEps {
			if _, err := core.BKRUS(in, e); err != nil {
				b.Fatal(err)
			}
		}
	}
}
