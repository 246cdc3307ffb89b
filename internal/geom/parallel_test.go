package geom

import (
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
// the row-parallel fill is byte-identical to the serial upper-triangle
// fill for both metrics, at several worker counts, above and below the
// parallel gate.
func TestNewDistMatrixParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 50, parallelMatrixMin, 200} {
		pts := randPoints(rng, n)
		for _, m := range []Metric{Manhattan, Euclidean} {
			prev := runtime.GOMAXPROCS(1)
			serial := NewDistMatrix(pts, m)
			runtime.GOMAXPROCS(prev)
			for _, workers := range []int{2, 4, 8} {
				par := &DistMatrix{n: n, d: make([]float64, n*n)}
				fillParallel(par, pts, m, workers)
				for i := range serial.d {
					if par.d[i] != serial.d[i] {
						t.Fatalf("n=%d %v workers=%d: cell %d differs: %v vs %v",
							n, m, workers, i, par.d[i], serial.d[i])
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
