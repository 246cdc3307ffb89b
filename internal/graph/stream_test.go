package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// randomEdges builds a shuffled edge set with deliberately heavy weight
// ties (weights drawn from a small integer range) so tie-break order is
// actually exercised.
func randomEdges(rng *rand.Rand, n int) []Edge {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: u, V: v, W: float64(rng.Intn(7))})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func randomPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		// Integer grid coordinates force plenty of exact distance ties.
		pts[i] = geom.Point{X: float64(rng.Intn(50)), Y: float64(rng.Intn(50))}
	}
	return pts
}

// extremeEdges builds every ordered pair over a node set that mixes
// small ids with ids up to 2³¹−1, so half the edges are non-canonical
// (U > V) and the packed key's high and low words both carry large
// values. Weights come from {+0, −0, 1, 2}: heavy ties, including ties
// between the two zeros, which compare equal but must come back with
// their sign bits intact.
func extremeEdges(rng *rand.Rand) []Edge {
	var ids []int
	for i := 0; i < 20; i++ {
		ids = append(ids, i, math.MaxInt32-i)
	}
	ids = append(ids, 1<<16, 1<<31-1<<16)
	weights := []float64{0, math.Copysign(0, -1), 1, 2}
	var edges []Edge
	for _, u := range ids {
		for _, v := range ids {
			if u != v {
				edges = append(edges, Edge{U: u, V: v, W: weights[rng.Intn(len(weights))]})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// skewedEdges builds shuffled complete-graph edge sets over n nodes
// whose weights defeat an even spread over linear buckets: one far
// outlier, two tight clusters far apart, all-equal weights, negated
// weights (the descending order mst.Maximal streams), and finite weights
// mixed with ±Inf. Each set is large enough that its first bucketing
// leaves buckets above bucketCap to be bucketed again.
func skewedEdges(rng *rand.Rand, n int) map[string][]Edge {
	build := func(weight func() float64) []Edge {
		edges := randomEdges(rng, n)
		for i := range edges {
			edges[i].W = weight()
		}
		return edges
	}
	out := map[string][]Edge{
		"outlier": build(func() float64 { return float64(rng.Intn(1000)) }),
		"clusters": build(func() float64 {
			return []float64{1, 1e6}[rng.Intn(2)] + float64(rng.Intn(100))*1e-9
		}),
		"equal":   build(func() float64 { return 3 }),
		"negated": build(func() float64 { return -float64(rng.Intn(7)) }),
		"inf": build(func() float64 {
			return []float64{math.Inf(1), math.Inf(-1), float64(rng.Intn(50))}[rng.Intn(3)]
		}),
	}
	out["outlier"][rng.Intn(len(out["outlier"]))].W = 1e12
	return out
}

// sameEdge compares weights by bits, so +0 and −0 differ.
func sameEdge(a, b Edge) bool {
	return a.U == b.U && a.V == b.V && math.Float64bits(a.W) == math.Float64bits(b.W)
}

func TestEdgeStreamMatchesSortEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inputs [][]Edge
	for _, n := range []int{0, 1, 2, 3, 10, 40, 90} {
		inputs = append(inputs, randomEdges(rng, n))
	}
	inputs = append(inputs, extremeEdges(rng))
	skewed := skewedEdges(rng, 100)
	for _, name := range []string{"outlier", "clusters", "equal", "negated", "inf"} {
		inputs = append(inputs, skewed[name])
	}
	for k, edges := range inputs {
		want := append([]Edge(nil), edges...)
		SortEdges(want)

		s := NewEdgeStreamFrom(edges)
		if s.Len() != len(want) {
			t.Fatalf("input %d: Len = %d, want %d", k, s.Len(), len(want))
		}
		for i, w := range want {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("input %d: stream ended at %d/%d", k, i, len(want))
			}
			if !sameEdge(got, w) {
				t.Fatalf("input %d: edge %d = %v, want %v", k, i, got, w)
			}
			if i > 0 && compareEdges(want[i-1], w) >= 0 {
				t.Fatalf("input %d: SortEdges left %v before %v", k, want[i-1], w)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("input %d: stream yielded past the end", k)
		}
	}
}

// TestEdgeStreamVertexIDGuard pins the boundary check behind the packed
// key: ids in [0, 2³¹−1] are accepted, anything else panics instead of
// silently colliding in the key.
func TestEdgeStreamVertexIDGuard(t *testing.T) {
	NewEdgeStreamFrom([]Edge{{U: math.MaxInt32, V: 0, W: 1}})
	for _, e := range []Edge{{U: -1, V: 0}, {U: 0, V: -1}, {U: math.MaxInt32 + 1, V: 0}, {U: 0, V: 1 << 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEdgeStreamFrom accepted %v", e)
				}
			}()
			NewEdgeStreamFrom([]Edge{e})
		}()
	}
}

func TestPackedEdgeSize(t *testing.T) {
	if got := unsafe.Sizeof(packedEdge{}); got != packedEdgeBytes {
		t.Fatalf("packedEdge is %d bytes, packedEdgeBytes says %d", got, packedEdgeBytes)
	}
}

// weightFunc is a Weights over n nodes computed by f.
type weightFunc struct {
	n int
	f func(i, j int) float64
}

func (w weightFunc) At(i, j int) float64 { return w.f(i, j) }
func (w weightFunc) Len() int            { return w.n }

// clusteredPoints places n points in two tight clusters 10⁶ apart.
func clusteredPoints(rng *rand.Rand, n int) []geom.Point {
	pts := randomPoints(rng, n)
	for i := range pts {
		pts[i].X = pts[i].X*1e-6 + float64(i%2)*1e6
	}
	return pts
}

// TestEdgeStreamFromWeights checks the complete-graph stream against
// SortEdges over CompleteEdges, bit for bit, on grid points in both
// metrics and on weight sets that skew the buckets.
func TestEdgeStreamFromWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]Weights{}
	for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
		cases[fmt.Sprintf("%v", m)] = geom.NewDistMatrix(randomPoints(rng, 35), m)
		outlier := append(randomPoints(rng, 79), geom.Point{X: 1e6, Y: 1e6})
		cases[fmt.Sprintf("%v/outlier", m)] = geom.NewDistMatrix(outlier, m)
		cases[fmt.Sprintf("%v/clusters", m)] = geom.NewDistMatrix(clusteredPoints(rng, 80), m)
	}
	grid := geom.NewDistMatrix(randomPoints(rng, 80), geom.Manhattan)
	cases["negated"] = weightFunc{80, func(i, j int) float64 { return -grid.At(i, j) }}
	cases["equal"] = weightFunc{80, func(i, j int) float64 { return 1 }}
	cases["inf"] = weightFunc{80, func(i, j int) float64 {
		if (i+j)%3 == 0 {
			return math.Inf(1)
		}
		return grid.At(i, j)
	}}
	for n := 0; n <= 2; n++ { // m ∈ {0, 0, 1}
		cases[fmt.Sprintf("n=%d", n)] = geom.NewDistMatrix(randomPoints(rng, n), geom.Euclidean)
	}
	for name, w := range cases {
		want := CompleteEdges(w)
		SortEdges(want)
		s := NewEdgeStream(w)
		for i, e := range want {
			got, ok := s.Next()
			if !ok || !sameEdge(got, e) {
				t.Fatalf("%s: edge %d = %v ok=%v, want %v", name, i, got, ok, e)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("%s: stream yielded past the end", name)
		}
	}
}

// TestEdgeStreamLazyWithOutlier pins the oversize rule: one point 10⁶
// away from 399 others puts nearly every edge in the first bucket of the
// first bucketing, and draining the n−1 shortest edges must still sort
// only a few buckets' worth — the crowded bucket is bucketed again over
// its own range instead of sorted whole.
func TestEdgeStreamLazyWithOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]geom.Point, 0, 400)
	for i := 0; i < 399; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	pts = append(pts, geom.Point{X: 1e6, Y: 1e6})
	s := NewEdgeStream(geom.NewDistMatrix(pts, geom.Euclidean))
	for i := 0; i < len(pts)-1; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	if sp := s.SortedPrefix(); sp > 4*bucketCap {
		t.Fatalf("SortedPrefix = %d of %d edges after draining %d, want at most %d", sp, s.Len(), len(pts)-1, 4*bucketCap)
	}
}

func TestEdgeStreamPartialDrainAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randomEdges(rng, 40)
	want := append([]Edge(nil), edges...)
	SortEdges(want)

	s := NewEdgeStreamFrom(edges)
	k := len(want) / 4
	for i := 0; i < k; i++ {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("first pass edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
	if s.Drained() != k {
		t.Fatalf("Drained = %d, want %d", s.Drained(), k)
	}
	if sp := s.SortedPrefix(); sp < k || sp > len(want) {
		t.Fatalf("SortedPrefix = %d out of range [%d,%d]", sp, k, len(want))
	}
	batchesAfterFirst := s.Batches()

	// A reset pass re-serves the sorted prefix without new batches, then
	// extends deeper.
	s.Reset()
	if s.Drained() != 0 {
		t.Fatalf("Drained after Reset = %d", s.Drained())
	}
	for i := 0; i < s.SortedPrefix(); i++ {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("reset pass edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
	if s.Batches() != batchesAfterFirst {
		t.Fatalf("re-serving the sorted prefix sorted new batches: %d -> %d", batchesAfterFirst, s.Batches())
	}
	for i := s.Drained(); i < len(want); i++ {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("deep pass edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
}

// TestEdgeStreamFullDrain drains every edge, then drains again after a
// Reset: the first pass leaves the whole array sorted, and the second
// re-serves it without sorting a bucket.
func TestEdgeStreamFullDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := randomEdges(rng, 80) // 3160 edges, above bucketCap
	want := append([]Edge(nil), edges...)
	SortEdges(want)

	s := NewEdgeStreamFrom(edges)
	batches := 0
	for pass := 0; pass < 2; pass++ {
		for i := range want {
			got, ok := s.Next()
			if !ok || got != want[i] {
				t.Fatalf("pass %d: edge %d = %v ok=%v, want %v", pass, i, got, ok, want[i])
			}
		}
		if s.SortedPrefix() != s.Len() {
			t.Fatalf("pass %d: SortedPrefix = %d, want %d after full drain", pass, s.SortedPrefix(), s.Len())
		}
		if pass == 1 && s.Batches() != batches {
			t.Fatalf("the Reset re-drain sorted %d new buckets", s.Batches()-batches)
		}
		batches = s.Batches()
		s.Reset()
	}
}
