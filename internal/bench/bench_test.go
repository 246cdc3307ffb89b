package bench

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mst"
)

func TestP1Characteristics(t *testing.T) {
	in := P1()
	if in.N() != 6 || in.NumEdges() != 15 {
		t.Errorf("p1: %d pts / %d edges, want 6/15", in.N(), in.NumEdges())
	}
	if math.Abs(in.R()-20.4) > 1e-9 || math.Abs(in.NearestR()-20.0) > 1e-9 {
		t.Errorf("p1: R=%v r=%v, want 20.4/20.0", in.R(), in.NearestR())
	}
}

func TestP2Characteristics(t *testing.T) {
	in := P2()
	if in.N() != 8 || in.NumEdges() != 28 {
		t.Errorf("p2: %d pts / %d edges, want 8/28", in.N(), in.NumEdges())
	}
	if math.Abs(in.R()-20.4) > 1e-9 || math.Abs(in.NearestR()-10.0) > 1e-9 {
		t.Errorf("p2: R=%v r=%v, want 20.4/10.0", in.R(), in.NearestR())
	}
}

func TestP3Characteristics(t *testing.T) {
	in := P3()
	if in.N() != 17 || in.NumEdges() != 136 {
		t.Errorf("p3: %d pts / %d edges, want 17/136", in.N(), in.NumEdges())
	}
	if math.Abs(in.R()-16.0) > 1e-9 || math.Abs(in.NearestR()-6.1) > 1e-9 {
		t.Errorf("p3: R=%v r=%v, want 16.0/6.1", in.R(), in.NearestR())
	}
}

func TestP4Characteristics(t *testing.T) {
	in := P4()
	if in.N() != 31 || in.NumEdges() != 465 {
		t.Errorf("p4: %d pts / %d edges, want 31/465", in.N(), in.NumEdges())
	}
	if math.Abs(in.R()-10.4) > 1e-6 || math.Abs(in.NearestR()-5.8) > 1e-6 {
		t.Errorf("p4: R=%v r=%v, want 10.4/5.8", in.R(), in.NearestR())
	}
}

// The p1 family must exhibit its pathology: BKT at eps=0 close to N x MST.
func TestP1Pathology(t *testing.T) {
	in := P1()
	bkt, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, 0), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := bkt.Cost() / mst.Kruskal(in.DistMatrix()).Cost()
	if ratio < 3 {
		t.Errorf("p1 eps=0 perf ratio = %v, want >> 1 (paper: 3.88)", ratio)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(7, 10, 100)
	b := Random(7, 10, 100)
	if a.Source() != b.Source() {
		t.Error("same seed produced different sources")
	}
	for i := 1; i < a.N(); i++ {
		if a.Point(i) != b.Point(i) {
			t.Errorf("same seed differs at point %d", i)
		}
	}
	c := Random(8, 10, 100)
	if a.Source() == c.Source() {
		t.Error("different seeds produced identical source (suspicious)")
	}
}

func TestRandomCase(t *testing.T) {
	in := RandomCase(12, 3)
	if in.NumSinks() != 12 {
		t.Errorf("NumSinks = %d", in.NumSinks())
	}
	again := RandomCase(12, 3)
	if in.Source() != again.Source() {
		t.Error("RandomCase not deterministic")
	}
}

func TestLargeCatalog(t *testing.T) {
	wantSinks := map[string]int{
		"pr1": 269, "pr2": 603, "r1": 267, "r2": 598, "r3": 862, "r4": 1903, "r5": 3101,
	}
	for _, name := range LargeNames() {
		in, ok := Large(name)
		if !ok {
			t.Fatalf("Large(%q) not found", name)
		}
		if in.NumSinks() != wantSinks[name] {
			t.Errorf("%s: %d sinks, want %d", name, in.NumSinks(), wantSinks[name])
		}
	}
	if _, ok := Large("nope"); ok {
		t.Error("unknown name found")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"p1", "p2", "p3", "p4", "pr1", "r1"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("zzz"); ok {
		t.Error("unknown benchmark resolved")
	}
}

func TestAllCatalog(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("catalog size = %d, want 11", len(all))
	}
	if all[0].Name != "p1" || all[10].Name != "r5" {
		t.Errorf("catalog order wrong: %s .. %s", all[0].Name, all[10].Name)
	}
}

func TestInstanceIORoundtrip(t *testing.T) {
	in := Random(3, 7, 50)
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() || back.Metric() != in.Metric() {
		t.Fatalf("roundtrip mismatch: N %d vs %d", back.N(), in.N())
	}
	for i := 0; i < in.N(); i++ {
		if back.Point(i) != in.Point(i) {
			t.Errorf("point %d: %v vs %v", i, back.Point(i), in.Point(i))
		}
	}
}

func TestReadInstanceEuclidean(t *testing.T) {
	src := "metric euclidean\nsource 0 0\nsink 1 2\n"
	in, err := ReadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Metric() != geom.Euclidean {
		t.Errorf("metric = %v", in.Metric())
	}
}

func TestReadInstanceErrors(t *testing.T) {
	cases := []string{
		"sink 1 2\n",                         // no source
		"source 0 0\nsource 1 1\nsink 1 2\n", // duplicate source
		"metric bogus\nsource 0 0\nsink 1 2", // bad metric
		"source 0 0\nsink 1\n",               // arity
		"source 0 0\nsink a b\n",             // bad floats
		"warp 0 0\n",                         // unknown directive
		"metric manhattan\nsource 0 0\n",     // no sinks
		"metric\nsource 0 0\nsink 1 2\n",     // metric arity
		"source x y\nsink 1 2\n",             // bad source floats
	}
	for i, c := range cases {
		if _, err := ReadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestWriteInstanceComments(t *testing.T) {
	in := Random(1, 3, 10)
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "#") {
		t.Error("missing header comment")
	}
	if !strings.Contains(buf.String(), "metric manhattan") {
		t.Error("missing metric line")
	}
}

func TestClustered(t *testing.T) {
	in := Clustered(3, 4, 5, 100)
	if in.NumSinks() != 20 {
		t.Errorf("sinks = %d, want 20", in.NumSinks())
	}
	again := Clustered(3, 4, 5, 100)
	if in.Point(7) != again.Point(7) {
		t.Error("Clustered not deterministic")
	}
}

func TestRingAllAtRadius(t *testing.T) {
	in := Ring(12, 10)
	if in.NumSinks() != 12 {
		t.Fatalf("sinks = %d", in.NumSinks())
	}
	for i := 1; i <= 12; i++ {
		d := geom.Manhattan.Dist(in.Source(), in.Point(i))
		if math.Abs(d-10) > 1e-9 {
			t.Errorf("sink %d at distance %v, want 10", i, d)
		}
	}
	if math.Abs(in.R()-10) > 1e-9 || math.Abs(in.NearestR()-10) > 1e-9 {
		t.Errorf("R/r = %v/%v, want 10/10", in.R(), in.NearestR())
	}
}

func TestGridPattern(t *testing.T) {
	in := GridPattern(3, 3, 10)
	// 9 cells minus the one on the source = 8 sinks
	if in.NumSinks() != 8 {
		t.Errorf("sinks = %d, want 8", in.NumSinks())
	}
	if in.Source() != (geom.Point{X: 10, Y: 10}) {
		t.Errorf("source = %v", in.Source())
	}
	// even grid: no sink coincides with the source
	in2 := GridPattern(2, 2, 10)
	if in2.NumSinks() != 4 {
		t.Errorf("even grid sinks = %d, want 4", in2.NumSinks())
	}
}

func TestRingZeroSkewFeasible(t *testing.T) {
	in := Ring(8, 20)
	tr, err := core.BKRUSBuild(context.Background(), in, core.LowerUpper(in, 1.0, 0.0), core.Config{})
	if err != nil {
		t.Fatalf("zero-skew on a ring should be feasible: %v", err)
	}
	d := tr.PathLengthsFrom(0)
	for v := 1; v < tr.N; v++ {
		if math.Abs(d[v]-20) > 1e-9 {
			t.Errorf("sink %d path %v, want exactly 20", v, d[v])
		}
	}
}
