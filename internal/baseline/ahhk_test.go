package baseline

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mst"
)

func TestAHHKParameterValidation(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(1)), 5, 100)
	for _, c := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := AHHKBuild(context.Background(), in, c); err == nil {
			t.Errorf("c = %v accepted", c)
		}
	}
}

func TestAHHKEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(20), 100)
		dm := in.DistMatrix()

		// c = 0 is Prim's MST
		prim, err := AHHKBuild(context.Background(), in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(prim.Cost()-mst.Kruskal(dm).Cost()) > 1e-9 {
			t.Errorf("trial %d: AHHK(0) cost %v != MST %v", trial, prim.Cost(), mst.Kruskal(dm).Cost())
		}

		// c = 1 is Dijkstra's SPT: every path equals the direct distance
		spt, err := AHHKBuild(context.Background(), in, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := spt.PathLengthsFrom(graph.Source)
		for v := 1; v < in.N(); v++ {
			if math.Abs(d[v]-dm.At(graph.Source, v)) > 1e-9 {
				t.Errorf("trial %d: AHHK(1) path to %d = %v, direct %v", trial, v, d[v], dm.At(0, v))
			}
		}
	}
}

// Property: cost decreases (weakly) and radius increases (weakly) as c
// falls — checked via the two endpoints sandwiching intermediate c.
func TestAHHKTradeoffProperty(t *testing.T) {
	f := func(seed int64, szRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%20) + 3
		c := float64(cRaw) / 255
		in := randomInstance(rng, n, 100)
		tr, err := AHHKBuild(context.Background(), in, c)
		if err != nil || tr.Validate() != nil {
			return false
		}
		mstCost := mst.Kruskal(in.DistMatrix()).Cost()
		sptRadius := in.R()
		// any AHHK tree costs at least the MST and reaches at least as
		// far as the SPT radius
		return tr.Cost() >= mstCost-1e-9 && tr.Radius(graph.Source) >= sptRadius-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAHHKSingleSink(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(5)), 1, 10)
	tr, err := AHHKBuild(context.Background(), in, 0.5)
	if err != nil || len(tr.Edges) != 1 {
		t.Errorf("single sink: %v %v", tr, err)
	}
}
