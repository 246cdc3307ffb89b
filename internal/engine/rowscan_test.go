package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/inst"
)

// rowScanAlgos are the constructors that scan every distance from one
// node per step — Dijkstra's settle, Prim's relaxation — and so read the
// instance's oracle instead of a distance matrix.
var rowScanAlgos = []string{"spt", "bprim", "ahhk"}

// rowScanFixtures covers the geometry that stresses tie-breaking: random
// points under both metrics, an integer lattice (distances tie
// everywhere) and clusters of coincident points (zero-length edges).
func rowScanFixtures() []struct {
	name string
	in   *inst.Instance
} {
	rng := rand.New(rand.NewSource(17))
	random := func(n int, m geom.Metric) *inst.Instance {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		return inst.MustNew(geom.Point{X: 500, Y: 500}, pts, m)
	}
	var lattice []geom.Point
	for i := 0; i < 15; i++ {
		for j := 0; j < 15; j++ {
			lattice = append(lattice, geom.Point{X: float64(i), Y: float64(j)})
		}
	}
	coincident := make([]geom.Point, 60)
	for i := range coincident {
		coincident[i] = geom.Point{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4))}
	}
	return []struct {
		name string
		in   *inst.Instance
	}{
		{"random-l1", random(300, geom.Manhattan)},
		{"random-l2", random(300, geom.Euclidean)},
		{"lattice-l1", inst.MustNew(geom.Point{X: 7.5, Y: 7}, lattice, geom.Manhattan)},
		{"coincident-l2", inst.MustNew(geom.Point{X: 1, Y: 1}, coincident, geom.Euclidean)},
	}
}

// TestConformanceRowScanGolden pins the trees spt, bprim and ahhk build to
// digests of their edge lists recorded while they still read a full
// n×n distance matrix: the oracle evaluates the same metric on the same
// two points, so every tree must stay edge-for-edge identical.
func TestConformanceRowScanGolden(t *testing.T) {
	golden := map[string]string{
		"spt/random-l1":       "7ec23f67eb21e452",
		"bprim/random-l1":     "ed4c5fd2c4d8fdba",
		"ahhk/random-l1":      "27af784becfff82c",
		"spt/random-l2":       "85ff90bcf3725663",
		"bprim/random-l2":     "f019d81c7ca76427",
		"ahhk/random-l2":      "36eb5dc0228a3650",
		"spt/lattice-l1":      "69ee5c5c1a90f764",
		"bprim/lattice-l1":    "726e99938980fc1a",
		"ahhk/lattice-l1":     "4bcf012ca042402b",
		"spt/coincident-l2":   "5eca70fe82d33b60",
		"bprim/coincident-l2": "23244fe1842e7d97",
		"ahhk/coincident-l2":  "403118949eb41708",
	}
	for _, fx := range rowScanFixtures() {
		for _, algo := range rowScanAlgos {
			r, err := Build(context.Background(), algo, fx.in, conformanceParams[algo])
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, fx.name, err)
			}
			key := algo + "/" + fx.name
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(edgeString(r))))[:16]
			if want := golden[key]; got != want {
				t.Errorf("%q: %q, want %q", key, got, want)
			}
		}
	}
}

// TestConformanceRowScanNoMatrix checks that spt, bprim and ahhk leave a
// fresh instance without a distance matrix: after the build the
// instance retains its point slice alone.
func TestConformanceRowScanNoMatrix(t *testing.T) {
	for _, fx := range rowScanFixtures() {
		for _, algo := range rowScanAlgos {
			fx.in.Release()
			before := fx.in.MemBytes()
			if _, err := Build(context.Background(), algo, fx.in, conformanceParams[algo]); err != nil {
				t.Fatalf("%s/%s: %v", algo, fx.name, err)
			}
			if got := fx.in.MemBytes(); got != before {
				t.Errorf("%s/%s: instance retains %d bytes after the build, want the %d of its points",
					algo, fx.name, got, before)
			}
		}
	}
}
