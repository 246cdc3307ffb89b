package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randIndexPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return pts
}

// octantRef is the branching octant classifier the index used before
// the branch-free one, kept as the reference both the classifier and
// the brute-force scan are checked against.
func octantRef(dx, dy float64) int {
	if dy < 0 || (dy == 0 && dx < 0) {
		return 4 + octantRef(-dx, -dy)
	}
	switch {
	case dx > 0 && dy < dx: // [0°, 45°)
		return 0
	case dx > 0: // [45°, 90°)
		return 1
	case dy > -dx: // [90°, 135°)
		return 2
	default: // [135°, 180°)
		return 3
	}
}

// bruteOctantNearest recomputes point i's octant-nearest table by
// scanning every other point, with the same (distance, id) tie-break
// the index promises.
func bruteOctantNearest(pts []Point, m Metric, i int) ([Octants]int32, [Octants]float64) {
	var bestID [Octants]int32
	var bestD [Octants]float64
	for o := 0; o < Octants; o++ {
		bestID[o] = -1
		bestD[o] = math.Inf(1)
	}
	for j := range pts {
		if j == i {
			continue
		}
		o := octantRef(pts[j].X-pts[i].X, pts[j].Y-pts[i].Y)
		d := m.Dist(pts[i], pts[j])
		if d < bestD[o] || (d == bestD[o] && int32(j) < bestID[o]) {
			bestD[o] = d
			bestID[o] = int32(j)
		}
	}
	return bestID, bestD
}

// checkIndexMatchesBrute fails unless every octant slot of every point
// agrees with bruteOctantNearest, id and distance bit for bit.
func checkIndexMatchesBrute(t *testing.T, name string, pts []Point, m Metric) {
	t.Helper()
	ix := NewIndex(pts, m)
	for i := range pts {
		wantID, wantD := bruteOctantNearest(pts, m, i)
		for o := 0; o < Octants; o++ {
			j, d, ok := ix.Neighbor(i, o)
			if ok != (wantID[o] >= 0) || (ok && (int32(j) != wantID[o] || d != wantD[o])) {
				t.Fatalf("%s %v n=%d point %d octant %d: got (%d,%g,%v) want (%d,%g)",
					name, m, len(pts), i, o, j, d, ok, wantID[o], wantD[o])
			}
		}
	}
}

// randBox draws n points uniformly from the w×h box at the origin.
func randBox(rng *rand.Rand, n int, w, h float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return pts
}

// pinColumns draws n points on 7 vertical pin columns: x ∈ {0…6},
// y uniform in [0, 3). The box's cells are far narrower than the column
// spacing, so 7 of about 1.4·√n grid columns hold every point.
func pinColumns(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64(rng.Intn(7)), Y: rng.Float64() * 3}
	}
	return pts
}

// TestIndexOctantNearestMatchesBruteForce checks the ring search,
// including its side pruning, against a brute-force scan on layouts
// that shape the grid differently: uniform squares, strips, a 1:50 box
// and an integer lattice strip (whole rows on the box edges),
// clusters (most cells empty), points exactly on cell boundaries
// (the bounding box is [0,100]², the grid 10×10, every coordinate a
// multiple of 10), and pin columns (many points per occupied cell).
func TestIndexOctantNearestMatchesBruteForce(t *testing.T) {
	for _, m := range []Metric{Manhattan, Euclidean} {
		for _, n := range []int{1, 2, 3, 10, 57, 200} {
			rng := rand.New(rand.NewSource(int64(31*n) + int64(m)))
			checkIndexMatchesBrute(t, "uniform", randIndexPoints(rng, n), m)
		}
		rng := rand.New(rand.NewSource(int64(m) + 7))
		checkIndexMatchesBrute(t, "strip1000x10", randBox(rng, 600, 1000, 10), m)
		checkIndexMatchesBrute(t, "strip10x1000", randBox(rng, 600, 10, 1000), m)
		checkIndexMatchesBrute(t, "box1:50", randBox(rng, 1000, 20, 1000), m)
		checkIndexMatchesBrute(t, "box50:1", randBox(rng, 1000, 1000, 20), m)
		var lattice []Point // whole rows on the box edges
		for y := 0; y < 6; y++ {
			for x := 0; x < 100; x++ {
				lattice = append(lattice, Point{X: float64(x), Y: float64(y)})
			}
		}
		checkIndexMatchesBrute(t, "lattice100x6", lattice, m)

		var clusters []Point
		for c := 0; c < 4; c++ {
			cx, cy := rng.Float64()*1000, rng.Float64()*1000
			for k := 0; k < 150; k++ {
				clusters = append(clusters, Point{X: cx + rng.NormFloat64()*5, Y: cy + rng.NormFloat64()*5})
			}
		}
		checkIndexMatchesBrute(t, "clusters", clusters, m)

		onEdges := []Point{{0, 0}, {100, 100}}
		for len(onEdges) < 100 {
			onEdges = append(onEdges, Point{X: float64(10 * rng.Intn(11)), Y: float64(10 * rng.Intn(11))})
		}
		checkIndexMatchesBrute(t, "cell-boundaries", onEdges, m)

		checkIndexMatchesBrute(t, "pin-columns", pinColumns(rng, 700), m)
	}
}

// TestIndexDegenerateLayouts covers collapsed and extreme bounding
// boxes: collinear point sets have zero extent on one axis and must
// still index cleanly, and so must near-collinear strips, a cluster
// with one far outlier, and coincident points.
func TestIndexDegenerateLayouts(t *testing.T) {
	layouts := map[string][]Point{
		"horizontal":  {{0, 5}, {1, 5}, {2, 5}, {9, 5}},
		"vertical":    {{3, 0}, {3, 2}, {3, 7}, {3, 8}},
		"single":      {{4, 4}},
		"coincident":  {{1, 1}, {1, 1}, {1, 1}},
		"thin-x":      {{0, 0}, {250, 1e-9}, {500, 0}, {750, 2e-9}, {1000, 1e-9}, {125, 0}},
		"thin-y":      {{0, 0}, {1e-9, 250}, {0, 500}, {2e-9, 750}, {1e-9, 1000}, {0, 125}},
		"outlier":     {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}, {1e6, 1e6}},
		"lattice1:50": {{0, 0}, {1, 0}, {2, 0}, {0, 50}, {1, 50}, {2, 50}, {0, 100}, {1, 100}, {2, 100}},
	}
	for name, pts := range layouts {
		for _, m := range []Metric{Manhattan, Euclidean} {
			checkIndexMatchesBrute(t, name, pts, m)
		}
	}
}

// TestOctantPartition checks the eight sectors partition every
// direction: the classifier must return exactly one sector in 0..7 and
// be antipodally consistent (octant(-v) = octant(v)+4 mod 8).
func TestOctantPartition(t *testing.T) {
	dirs := []struct{ dx, dy float64 }{
		{1, 0}, {1, 0.5}, {1, 1}, {0.5, 1}, {0, 1}, {-0.5, 1}, {-1, 1}, {-1, 0.5},
		{-1, 0}, {-1, -0.5}, {-1, -1}, {-0.5, -1}, {0, -1}, {0.5, -1}, {1, -1}, {1, -0.5},
	}
	for k, d := range dirs {
		o := octant(d.dx, d.dy)
		if o < 0 || o >= Octants {
			t.Fatalf("octant(%g,%g) = %d out of range", d.dx, d.dy, o)
		}
		if want := k / 2; o != want {
			t.Fatalf("octant(%g,%g) = %d, want %d", d.dx, d.dy, o, want)
		}
		if anti := octant(-d.dx, -d.dy); anti != (o+4)%Octants {
			t.Fatalf("octant antipode of (%g,%g): got %d want %d", d.dx, d.dy, anti, (o+4)%Octants)
		}
	}
}

// TestOctantMatchesReference requires the branch-free classifier to
// agree with the branching reference everywhere it is defined: signed
// zeros, infinities, both diagonals, both axes, and 10⁶ random and
// small-integer displacements (integers put many directions exactly on
// a sector boundary).
func TestOctantMatchesReference(t *testing.T) {
	check := func(dx, dy float64) {
		t.Helper()
		if got, want := octant(dx, dy), octantRef(dx, dy); got != want {
			t.Fatalf("octant(%g, %g) = %d, reference %d", dx, dy, got, want)
		}
	}
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1, -1, 0.5, -0.5, 3, -3, inf, -inf,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, dx := range special {
		for _, dy := range special {
			check(dx, dy)
		}
		check(dx, dx)  // the 45° and 225° diagonal
		check(dx, -dx) // the 135° and 315° diagonal
	}
	if octant(0, 0) != 3 || octant(negZero, negZero) != 3 {
		t.Fatalf("coincident points classify as %d and %d, want 3", octant(0, 0), octant(negZero, negZero))
	}
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < 1000000; k++ {
		check(rng.NormFloat64(), rng.NormFloat64())
		check(float64(rng.Intn(9)-4), float64(rng.Intn(9)-4))
	}
}

// TestIndexCountersAndMemBytes checks the search counters and the
// accessors, and pins the search effort on a uniform n = 10⁴ set: the
// side-pruned ring search probes 60.8 cells per point under L1 and 45.4
// under L2 there, so a search that stops later, side or ring, fails.
func TestIndexCountersAndMemBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := randIndexPoints(rng, 64)
	ix := NewIndex(pts, Euclidean)
	if ix.Probes() <= 0 || ix.Candidates() <= 0 {
		t.Fatalf("expected positive search counters, got probes=%d candidates=%d", ix.Probes(), ix.Candidates())
	}
	if ix.MemBytes() <= 0 {
		t.Fatalf("expected positive MemBytes, got %d", ix.MemBytes())
	}
	if ix.Len() != 64 || !ix.Metric().Valid() {
		t.Fatalf("accessor mismatch: len=%d metric=%v", ix.Len(), ix.Metric())
	}
	if d := ix.Dist(0, 1); d != Euclidean.Dist(pts[0], pts[1]) {
		t.Fatalf("Dist oracle mismatch: %g", d)
	}

	const n = 10000
	uniform := randIndexPoints(rand.New(rand.NewSource(1)), n)
	for _, c := range []struct {
		m        Metric
		maxProbe float64
	}{{Manhattan, 65}, {Euclidean, 50}} {
		ix := NewIndex(uniform, c.m)
		if per := float64(ix.Probes()) / n; per > c.maxProbe {
			t.Errorf("%v: %.1f probes per point on a uniform n = %d set, want at most %g", c.m, per, n, c.maxProbe)
		}
	}

	// 1000×10 strips, random and an integer lattice. Cells shaped like
	// the box stay square where a √n×√n grid makes them 100 times wider
	// than tall, and an edge row proves its outward octants empty at
	// once instead of scanning the strip's length for them.
	lattice := make([]Point, 0, n)
	for y := 0; y < 10; y++ {
		for x := 0; x < 1000; x++ {
			lattice = append(lattice, Point{X: float64(x), Y: float64(y)})
		}
	}
	strips := map[string][]Point{"random": randBox(rand.New(rand.NewSource(2)), n, 1000, 10), "lattice": lattice}
	for _, name := range []string{"random", "lattice"} {
		for _, c := range []struct {
			m        Metric
			maxProbe float64
		}{{Manhattan, 70}, {Euclidean, 60}} {
			ix := NewIndex(strips[name], c.m)
			if per := float64(ix.Probes()) / n; per > c.maxProbe {
				t.Errorf("%v: %.1f probes per point on a %s 1000×10 strip, want at most %g", c.m, per, name, c.maxProbe)
			}
		}
	}
}

// TestNewIndexInvalidMetricPanics pins that the inline distance of the
// search fails on an invalid metric as Metric.Dist does, as soon as
// there is a pair to measure.
func TestNewIndexInvalidMetricPanics(t *testing.T) {
	NewIndex([]Point{{X: 1, Y: 2}}, Metric(7)) // no pair: builds
	defer func() {
		if recover() == nil {
			t.Fatal("NewIndex with an invalid metric did not panic")
		}
	}()
	NewIndex([]Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, Metric(7))
}
