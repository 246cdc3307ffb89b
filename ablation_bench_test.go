package bpmst

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - the Lemma 4.1-4.3 candidate-edge filters in the exact enumeration
//     (how much preprocessing buys on the exact search);
//   - the exchange search depth (BKH2's depth 2 versus deeper searches);
//   - BKST's layered-jumper fallback versus strictly planar routing;
//   - the DisjointSet member lists versus recomputing memberships (the
//     member-list structure is what makes the O(V) feasibility scan and
//     the O(V²) total merge bookkeeping possible).

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/exchange"
	"repro/internal/steiner"
)

func BenchmarkAblationGabowLemmasOn(b *testing.B) {
	n := randomBenchNet(31, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BMSTG(n, 0.1, GabowOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGabowLemmasOff(b *testing.B) {
	n := randomBenchNet(31, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.BMSTGBounds(context.Background(), n.in, core.UpperOnly(n.in, 0.1), exact.Options{DisableLemmas: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkExchangeDepth(b *testing.B, depth int) {
	n := randomBenchNet(32, 12)
	in := n.in
	eps := 0.1
	start, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exchange.Improve(context.Background(), in, start, core.UpperOnly(in, eps), exchange.Options{MaxDepth: depth}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExchangeDepth1(b *testing.B) { benchmarkExchangeDepth(b, 1) }
func BenchmarkAblationExchangeDepth2(b *testing.B) { benchmarkExchangeDepth(b, 2) }
func BenchmarkAblationExchangeDepth4(b *testing.B) { benchmarkExchangeDepth(b, 4) }
func BenchmarkAblationExchangeDepth6(b *testing.B) { benchmarkExchangeDepth(b, 6) }

func BenchmarkAblationBKSTLayered(b *testing.B) {
	n := randomBenchNet(33, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steiner.BKSTBuild(context.Background(), n.in, core.UpperOnly(n.in, 0.2), steiner.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBKSTPlanar(b *testing.B) {
	n := randomBenchNet(33, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := steiner.BKSTBuild(context.Background(), n.in, core.UpperOnly(n.in, 0.2), steiner.Config{Planar: true}); err != nil &&
			err != steiner.ErrNotPlanar && err != steiner.ErrInfeasible {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExactVsExchange compares the two exact methods
// head-to-head at the net size where the paper says Gabow's method stops
// being practical.
func BenchmarkAblationExactGabow15(b *testing.B) {
	n := randomBenchNet(34, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.BMSTGBounds(context.Background(), n.in, core.UpperOnly(n.in, 0.2), exact.Options{MaxTrees: 100000}); err != nil && err != exact.ErrBudget {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExactBKEX15(b *testing.B) {
	n := randomBenchNet(34, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BKEX(n, 0.2, 6); err != nil {
			b.Fatal(err)
		}
	}
}
