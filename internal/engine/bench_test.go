package engine

import (
	"context"
	"fmt"
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

// BenchmarkSweepParallel measures sweep throughput over a wider ε grid
// at pinned worker counts. workers=1 is the serial-equivalent baseline;
// on a multi-core host workers=4 should approach 4× cell throughput
// (cells are independent and share no hot state).
func BenchmarkSweepParallel(b *testing.B) {
	in := bench.Random(5, 120, 1000)
	in.DistMatrix()
	eps := []float64{0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.6, 0.7, 0.8, 1.0}
	ps := make([]Params, len(eps))
	for i, e := range eps {
		ps[i] = Params{Eps: e}
	}
	for _, w := range []int{1, 4} {
		b.Run(fmtWorkers(w), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SweepParallel(context.Background(), "bkrus", in, ps, SweepOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(ps)), "cells/op")
		})
	}
}

func fmtWorkers(w int) string { return fmt.Sprintf("workers=%d", w) }
