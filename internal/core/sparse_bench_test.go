package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
)

// The sparse-vs-dense pair measures what the implicit-geometry tentpole
// buys end to end: each iteration builds the instance, its geometry
// cache (octant index or full distance matrix), and the tree, then
// releases the caches — so B/op is the whole pipeline's footprint. The
// dense path allocates the O(n²) matrix and edge list; the sparse path
// stays O(n) per node and is the only one that can run n = 10⁵ at all.
// make bench-smoke runs the n = 10⁵ sparse row with -benchmem, and
// tools/benchjson -diff compares bytes/op next to time, so a quadratic
// allocation shows up even below the wall-time noise floor.
func benchmarkBKRUSGeometry(b *testing.B, nodes int, geo Geometry) {
	rng := rand.New(rand.NewSource(29))
	base := randomInstance(rng, nodes-1, 1000)
	pts := base.Points()
	src, sinks, m := pts[0], pts[1:], base.Metric()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inst.MustNew(src, sinks, m)
		bounds := UpperOnly(in, 2)
		if _, err := BKRUSBuild(context.Background(), in, bounds, Config{Geometry: geo}); err != nil {
			b.Fatal(err)
		}
		in.Release()
	}
}

func BenchmarkBKRUSSparse(b *testing.B) {
	for _, nodes := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", nodes), func(b *testing.B) { benchmarkBKRUSGeometry(b, nodes, GeomSparse) })
	}
}

func BenchmarkBKRUSDense(b *testing.B) {
	// n = 10⁴ dense already allocates ~800 MB of matrix per op; only the
	// n = 10³ row is worth a committed baseline.
	b.Run("n=1000", func(b *testing.B) { benchmarkBKRUSGeometry(b, 1000, GeomDense) })
}

// Sinks for the layer rows' results, so the compiler keeps the calls.
var (
	layerIndex  *geom.Index
	layerMatrix *geom.DistMatrix
	layerStream *graph.EdgeStream
)

// BenchmarkSparseLayers splits the sparse pipeline of
// BenchmarkBKRUSSparse/n=10000 into its layers over one instance (ε = 2
// as there): layer=index is the octant index (geom.NewIndex),
// layer=edges the candidate set and its stream (graph.NewSparseEdgeStream
// over a built index), layer=build the scan and the forest bookkeeping
// (BKRUSBuild over a fresh stream, so the bucket sorts the scan reaches
// count here). The rows sum to that benchmark's op less the instance's
// own construction. The index rows pin GOMAXPROCS to their worker count
// (1 is the serial search), and layout=columns indexes 10⁴ points on 7
// vertical pin columns (x ∈ {0…6}, y ∈ [0, 3)), whose cells hold ~20
// points each in 7 of ~141 grid columns, against the instance's uniform
// points.
func BenchmarkSparseLayers(b *testing.B) {
	const nodes = 10000
	in := randomInstance(rand.New(rand.NewSource(29)), nodes-1, 1000)
	rng := rand.New(rand.NewSource(31))
	columns := make([]geom.Point, nodes)
	for i := range columns {
		columns[i] = geom.Point{X: float64(rng.Intn(7)), Y: rng.Float64() * 3}
	}
	for _, layout := range []struct {
		name string
		pts  []geom.Point
	}{{"uniform", in.Points()}, {"columns", columns}} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("layer=index/layout=%s/workers=%d", layout.name, w), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					layerIndex = geom.NewIndex(layout.pts, in.Metric())
				}
			})
		}
	}
	ix := in.Index()
	b.Run("layer=edges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			layerStream = graph.NewSparseEdgeStream(ix, graph.Source)
		}
	})
	b.Run("layer=build", func(b *testing.B) {
		bounds := UpperOnly(in, 2)
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.Release()
			s.EdgeStream(in, GeomSparse) // a fresh stream, cached for the build
			b.StartTimer()
			if _, err := BKRUSBuild(context.Background(), in, bounds, Config{Scratch: &s, Geometry: GeomSparse}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDenseLayers is BenchmarkSparseLayers' dense twin at n = 1000
// (the instance of BenchmarkBKRUSDense/n=1000): layer=matrix is the
// distance matrix (geom.NewDistMatrix), layer=edges the complete-graph
// stream's range, count and scatter passes (graph.NewEdgeStream over a
// built matrix), and layer=build the scan, the bucket sorts it reaches
// and the forest bookkeeping (BKRUSBuild over a fresh stream) at a
// tight, a middle and a loose bound.
func BenchmarkDenseLayers(b *testing.B) {
	const nodes = 1000
	in := randomInstance(rand.New(rand.NewSource(29)), nodes-1, 1000)
	pts := in.Points()
	b.Run("layer=matrix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			layerMatrix = geom.NewDistMatrix(pts, in.Metric())
		}
	})
	dm := in.DistMatrix()
	b.Run("layer=edges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			layerStream = graph.NewEdgeStream(dm)
		}
	})
	for _, eps := range []float64{0.1, 0.5, 2} {
		b.Run(fmt.Sprintf("layer=build/eps=%g", eps), func(b *testing.B) {
			bounds := UpperOnly(in, eps)
			var s Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.Release()
				s.EdgeStream(in, GeomDense) // a fresh stream, cached for the build
				b.StartTimer()
				if _, err := BKRUSBuild(context.Background(), in, bounds, Config{Scratch: &s, Geometry: GeomDense}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
