package geom

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

// TestNewDistMatrixParallelMatchesSerial pins the determinism contract:
// the range-parallel fill of the packed triangle is byte-identical to
// the serial fill for both metrics, at several worker counts (including
// one that does not divide the pair count), on both sides of the
// parallel gate and at the empty and single-pair edges.
func TestNewDistMatrixParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, parallelMatrixMin - 1, parallelMatrixMin, parallelMatrixMin + 1, 200, 1000} {
		pts := randPoints(rng, n)
		for _, m := range []Metric{Manhattan, Euclidean} {
			prev := runtime.GOMAXPROCS(1)
			serial := NewDistMatrix(pts, m)
			runtime.GOMAXPROCS(prev)
			if len(serial.d) != n*(n+1)/2 {
				t.Fatalf("n=%d: %d cells, want %d", n, len(serial.d), n*(n+1)/2)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				par := &DistMatrix{n: n, d: make([]float64, n*(n+1)/2)}
				fillParallel(par, pts, m, workers)
				for i := range serial.d {
					if math.Float64bits(par.d[i]) != math.Float64bits(serial.d[i]) {
						t.Fatalf("n=%d %v workers=%d: cell %d differs: %v vs %v",
							n, m, workers, i, par.d[i], serial.d[i])
					}
				}
			}
		}
	}
}

// TestDistMatrixPacked pins the packed layout's read contract on
// random, coincident and collinear points under both metrics: both
// halves of At read the one cell m.Dist(p_min, p_max), bit for bit;
// the diagonal is zero; Row(i) agrees with At for j ≥ i; and the
// matrix retains n(n+1)/2 cells, nothing more.
func TestDistMatrixPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coincident := make([]Point, 40)
	for i := range coincident {
		coincident[i] = Point{X: 3, Y: -7}
	}
	collinear := make([]Point, 60)
	for i := range collinear {
		x := rng.Float64() * 1000
		collinear[i] = Point{X: x, Y: 0.5*x + 1}
	}
	sets := map[string][]Point{
		"random":     randPoints(rng, 150),
		"coincident": coincident,
		"collinear":  collinear,
		"single":     {{X: 1, Y: 2}},
	}
	for name, pts := range sets {
		for _, m := range []Metric{Manhattan, Euclidean} {
			dm := NewDistMatrix(pts, m)
			n := len(pts)
			if got, want := dm.MemBytes(), int64(8*n*(n+1)/2); got != want {
				t.Errorf("%s %v: MemBytes = %d, want %d", name, m, got, want)
			}
			for i := 0; i < n; i++ {
				if dm.At(i, i) != 0 {
					t.Errorf("%s %v: At(%d,%d) = %v", name, m, i, i, dm.At(i, i))
				}
				row := dm.Row(i)
				if len(row) != n {
					t.Fatalf("%s %v: len(Row(%d)) = %d, want %d", name, m, i, len(row), n)
				}
				for j := 0; j < n; j++ {
					want := math.Float64bits(m.Dist(pts[min(i, j)], pts[max(i, j)]))
					if got := math.Float64bits(dm.At(i, j)); got != want {
						t.Fatalf("%s %v: At(%d,%d) bits %x, want %x", name, m, i, j, got, want)
					}
					if j >= i && math.Float64bits(row[j]) != want {
						t.Fatalf("%s %v: Row(%d)[%d] = %v, want At = %v", name, m, i, j, row[j], dm.At(i, j))
					}
				}
			}
		}
	}
}

// TestUniqueCoordsNoAlias pins the documented contract that the result
// never shares backing storage with the input, in either direction.
func TestUniqueCoordsNoAlias(t *testing.T) {
	xs := []float64{3, 1, 2, 1, 3}
	orig := append([]float64(nil), xs...)
	out := UniqueCoords(xs, 1e-9)
	if len(out) != 3 || out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("UniqueCoords = %v", out)
	}
	for i, v := range orig {
		if xs[i] != v {
			t.Fatalf("input mutated at %d: %v", i, xs)
		}
	}
	// Mutating the result must not leak into the input and vice versa.
	out[0] = -99
	for i, v := range orig {
		if xs[i] != v {
			t.Fatalf("result aliases input at %d: %v", i, xs)
		}
	}
	xs[0] = 42
	if out[1] != 2 || out[2] != 3 {
		t.Fatalf("input aliases result: %v", out)
	}
}
