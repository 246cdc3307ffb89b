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

// BenchmarkRowScanFresh measures the constructors that scan every
// distance from one node — spt, bprim, ahhk — through engine.Build on
// an instance that holds no geometry cache, so any distance matrix a
// constructor builds is billed to its row. They read the instance's
// oracle and build none; a row that jumps by the O(n²) fill means one
// went back to the matrix.
func BenchmarkRowScanFresh(b *testing.B) {
	for _, n := range []int{200, 1000, 2047} {
		in := bench.Random(11, n-1, 1000)
		for _, algo := range []string{"spt", "bprim", "ahhk"} {
			b.Run(fmt.Sprintf("n=%d/algo=%s", n, algo), func(b *testing.B) {
				p := Params{Eps: 0.2, AHHKC: 0.5}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					in.Release()
					if _, err := Build(context.Background(), algo, in, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
