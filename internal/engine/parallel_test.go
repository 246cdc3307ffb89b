package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/obs"
)

// buildAtProcs runs one Build with GOMAXPROCS pinned to procs, the only
// input the surviving parallel kernel (the distance-matrix fill) reads
// to pick its worker count. Callers
// pass a fresh instance, so its lazily cached geometry is built at that
// setting too.
func buildAtProcs(t *testing.T, procs int, name string, in *inst.Instance, p Params) Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := Build(context.Background(), name, in, p)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return res
}

func randomMetricInstance(seed int64, sinks int, extent float64, m geom.Metric) *inst.Instance {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	src := geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	return inst.MustNew(src, pts, m)
}

// counterTotals flattens a registry snapshot's counters into a
// comparable map.
func counterTotals(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, sc := range reg.Snapshot().Scopes {
		for _, c := range sc.Counters {
			out[sc.Name+"."+c.Name] = c.Value
		}
	}
	return out
}

// TestWorkersDeterminismProperty pins that the core count never shows in
// a tree: BKRUS (dense and sparse geometry, both metrics), BMST_G, and
// BKST build byte-identical trees with identical construction counter
// totals at GOMAXPROCS ∈ {1, 2, 4, 8} on random instances. The dense
// instances are above the matrix fill's parallel gate.
func TestWorkersDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type tc struct {
		label string
		name  string
		in    func() *inst.Instance
		p     Params
	}
	random := func(seed int64, sinks int, extent float64, m geom.Metric) func() *inst.Instance {
		return func() *inst.Instance { return randomMetricInstance(seed, sinks, extent, m) }
	}
	cases := []tc{
		{"bkrus/manhattan/dense", "bkrus", random(21, 200, 1000, geom.Manhattan), Params{Eps: 0.2, Geometry: GeomDense}},
		{"bkrus/euclidean/dense", "bkrus", random(22, 200, 1000, geom.Euclidean), Params{Eps: 0.2, Geometry: GeomDense}},
		{"bkrus/manhattan/sparse", "bkrus", random(23, 400, 1e5, geom.Manhattan), Params{Eps: 0.1, Geometry: GeomSparse}},
		{"bkrus/euclidean/sparse", "bkrus", random(24, 400, 1e5, geom.Euclidean), Params{Eps: 0.1, Geometry: GeomSparse}},
		{"bmstg/manhattan", "bmstg", random(25, 9, 100, geom.Manhattan), Params{Eps: 0.1}},
		{"bmstg/euclidean", "bmstg", random(26, 9, 100, geom.Euclidean), Params{Eps: 0.1}},
		{"bkst/manhattan", "bkst", random(27, 60, 40, geom.Manhattan), Params{Eps: 0.2}},
	}
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			var wantEdges string
			var wantCounters map[string]int64
			for _, w := range []int{1, 2, 4, 8} {
				p := c.p
				reg := obs.NewRegistry()
				p.Obs = reg
				res := buildAtProcs(t, w, c.name, c.in(), p)
				edges := edgeString(res)
				counters := counterTotals(reg)
				if w == 1 {
					wantEdges, wantCounters = edges, counters
					continue
				}
				if edges != wantEdges {
					t.Errorf("GOMAXPROCS=%d tree differs from GOMAXPROCS=1:\n  %s\n  %s", w, edges, wantEdges)
				}
				if len(counters) != len(wantCounters) {
					t.Errorf("GOMAXPROCS=%d counter set %v, want %v", w, counters, wantCounters)
					continue
				}
				for k, v := range wantCounters {
					if counters[k] != v {
						t.Errorf("GOMAXPROCS=%d counter %s = %d, want %d", w, k, counters[k], v)
					}
				}
			}
		})
	}
}

// TestConformanceWorkersByteIdentical is the acceptance gate over the
// whole registry: every registered constructor builds byte-identically
// at GOMAXPROCS 1 and 4 on the conformance fixtures.
func TestConformanceWorkersByteIdentical(t *testing.T) {
	for _, info := range List() {
		p, ok := conformanceParams[info.Name]
		if !ok {
			continue
		}
		for i, fx := range conformanceFixtures() {
			t.Run(info.Name+"/"+fx.name, func(t *testing.T) {
				serial := buildAtProcs(t, 1, info.Name, fx.in, p)
				parallel := buildAtProcs(t, 4, info.Name, conformanceFixtures()[i].in, p)
				if edgeString(serial) != edgeString(parallel) {
					t.Errorf("GOMAXPROCS 1 and 4 builds differ:\n  %s\n  %s", edgeString(serial), edgeString(parallel))
				}
			})
		}
	}
}
