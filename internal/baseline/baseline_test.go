package baseline

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

func randomInstance(rng *rand.Rand, sinks int, extent float64) *inst.Instance {
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	src := geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	return inst.MustNew(src, pts, geom.Manhattan)
}

func TestBPRIMNegativeEps(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}}, geom.Manhattan)
	if _, err := BPRIMBuild(context.Background(), in, -1, nil); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := BRBCBuild(context.Background(), in, -1, nil); err == nil {
		t.Error("negative eps accepted by BRBC")
	}
}

func TestBPRIMBoundProperty(t *testing.T) {
	f := func(seed int64, szRaw, epsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%25) + 2
		eps := float64(epsRaw%200) / 100
		in := randomInstance(rng, n, 100)
		tr, err := BPRIMBuild(context.Background(), in, eps, nil)
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		return core.FeasibleTree(tr, core.UpperOnly(in, eps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBPRIMInfiniteEpsIsMST(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(25), 100)
		tr, err := BPRIMBuild(context.Background(), in, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := mst.Kruskal(in.DistMatrix()).Cost()
		if math.Abs(tr.Cost()-want) > 1e-9 {
			t.Errorf("trial %d: BPRIM(inf) = %v, MST = %v", trial, tr.Cost(), want)
		}
	}
}

// Figure 1 phenomenon: on a chain of sinks leading away from the source,
// BPRIM at tight eps ends up connecting far sinks directly to the source
// while BKRUS builds a much cheaper feasible tree.
func TestBPRIMChainPathology(t *testing.T) {
	// Sinks on the Manhattan circle of radius 16 (diamond arc) plus a
	// near cluster: far sinks cannot chain off each other at eps=0, but a
	// smarter construction can still share structure at moderate eps.
	var sinks []geom.Point
	for i := 0; i < 10; i++ {
		tt := 2 + float64(i)*1.2
		sinks = append(sinks, geom.Point{X: 16 - tt, Y: tt})
	}
	in := inst.MustNew(geom.Point{}, sinks, geom.Manhattan)
	eps := 0.25
	bp, err := BPRIMBuild(context.Background(), in, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bk.Cost() > bp.Cost()+1e-9 {
		t.Errorf("BKRUS (%v) should not lose to BPRIM (%v) on the arc fixture", bk.Cost(), bp.Cost())
	}
}

func TestBRBCRadiusGuarantee(t *testing.T) {
	f := func(seed int64, szRaw, epsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%25) + 2
		eps := float64(epsRaw%150)/100 + 0.01
		in := randomInstance(rng, n, 100)
		tr, err := BRBCBuild(context.Background(), in, eps, nil)
		if err != nil || tr.Validate() != nil {
			return false
		}
		return tr.Radius(graph.Source) <= in.Bound(eps)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBRBCCostGuarantee(t *testing.T) {
	// cost(BRBC) <= (1 + 2/eps) * cost(MST)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		eps := 0.1 + rng.Float64()
		in := randomInstance(rng, n, 100)
		tr, err := BRBCBuild(context.Background(), in, eps, nil)
		if err != nil {
			t.Fatal(err)
		}
		limit := (1 + 2/eps) * mst.Kruskal(in.DistMatrix()).Cost()
		if tr.Cost() > limit+1e-9 {
			t.Errorf("trial %d: BRBC cost %v exceeds guarantee %v", trial, tr.Cost(), limit)
		}
	}
}

func TestBRBCZeroEpsIsStar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randomInstance(rng, 15, 100)
	tr, err := BRBCBuild(context.Background(), in, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.PathLengthsFrom(graph.Source)
	dm := in.DistMatrix()
	for v := 1; v < in.N(); v++ {
		if math.Abs(d[v]-dm.At(0, v)) > 1e-9 {
			t.Errorf("eps=0 path to %d = %v, direct = %v", v, d[v], dm.At(0, v))
		}
	}
}

func TestBRBCInfiniteEpsIsMST(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	in := randomInstance(rng, 20, 100)
	tr, err := BRBCBuild(context.Background(), in, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mst.Kruskal(in.DistMatrix()).Cost()
	if math.Abs(tr.Cost()-want) > 1e-9 {
		t.Errorf("BRBC(inf) = %v, MST = %v", tr.Cost(), want)
	}
}

func TestBPRIMSingleSink(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 2, Y: 3}}, geom.Euclidean)
	tr, err := BPRIMBuild(context.Background(), in, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != 1 || math.Abs(tr.Cost()-in.R()) > 1e-12 {
		t.Errorf("single-sink BPRIM wrong: %v", tr.Edges)
	}
	if tr2, err := BRBCBuild(context.Background(), in, 0.5, nil); err != nil || len(tr2.Edges) != 1 {
		t.Errorf("single-sink BRBC wrong: %v %v", tr2, err)
	}
}

func BenchmarkBPRIM100(b *testing.B) {
	in := randomInstance(rand.New(rand.NewSource(31)), 100, 1000)
	in.DistMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BPRIMBuild(context.Background(), in, 0.2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBRBC100(b *testing.B) {
	in := randomInstance(rand.New(rand.NewSource(31)), 100, 1000)
	in.DistMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BRBCBuild(context.Background(), in, 0.2, nil); err != nil {
			b.Fatal(err)
		}
	}
}
