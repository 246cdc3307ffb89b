package delay

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

func chainTree(n int, step float64) *graph.Tree {
	t := graph.NewTree(n)
	for v := 1; v < n; v++ {
		t.AddEdge(v-1, v, step)
	}
	return t
}

func TestBufferValidate(t *testing.T) {
	if (Buffer{RDrive: -1}).Validate() == nil {
		t.Error("negative RDrive accepted")
	}
	if (Buffer{RDrive: 1, CIn: 1, Delay: 1}).Validate() != nil {
		t.Error("valid buffer rejected")
	}
}

func TestNewBufferedTreeValidation(t *testing.T) {
	tr := chainTree(3, 1)
	m := DefaultModel()
	buf := Buffer{RDrive: 1, CIn: 0.5, Delay: 1}
	if _, err := NewBufferedTree(tr, m, buf, []bool{false, false}); err == nil {
		t.Error("wrong placement length accepted")
	}
	if _, err := NewBufferedTree(tr, m, buf, []bool{true, false, false}); err == nil {
		t.Error("buffer at source accepted")
	}
	forest := graph.NewTree(3)
	forest.AddEdge(0, 1, 1)
	if _, err := NewBufferedTree(forest, m, buf, make([]bool, 3)); err == nil {
		t.Error("forest accepted")
	}
}

func TestUnbufferedMatchesSourceDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	in := inst.MustNew(geom.Point{}, pts, geom.Manhattan)
	tr := mst.Kruskal(in.DistMatrix())
	m := Model{RUnit: 0.1, CUnit: 0.2, RDriver: 2, CDriver: 1}
	bt, err := NewBufferedTree(tr, m, Buffer{RDrive: 1, CIn: 0.5, Delay: 1}, make([]bool, tr.N))
	if err != nil {
		t.Fatal(err)
	}
	want := SourceDelays(tr, m)
	got := bt.Delays()
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("node %d: buffered(none) %v vs plain %v", v, got[v], want[v])
		}
	}
}

// Hand check: chain S -l- a -l- b with a buffer at a.
func TestBufferedDelayHandComputed(t *testing.T) {
	m := Model{RUnit: 1, CUnit: 1, RDriver: 2, CDriver: 0, Load: []float64{0, 0, 3}}
	buf := Buffer{RDrive: 0.5, CIn: 0.25, Delay: 7}
	tr := chainTree(3, 2) // wires of length 2
	at := []bool{false, true, false}
	bt, err := NewBufferedTree(tr, m, buf, at)
	if err != nil {
		t.Fatal(err)
	}
	// stage caps: C_b = 3. C_a = load(a)=0 + wire(a,b)=2 + C_b = 5.
	// Stage of source sees buffer CIn at a: C_S = wire(S,a)=2 + 0.25 = 2.25.
	// d(S) = rd*(cd + C_S) = 2*2.25 = 4.5
	// d(a) = d(S) + r*2*(c*2/2 + CIn) = 4.5 + 2*(1+0.25) = 7.0,
	//        then buffer: +Delay 7 + RDrive*C_a = 7 + 0.5*5 = +9.5 -> 16.5
	// d(b) = 16.5 + 2*(1 + 3) = 24.5
	d := bt.Delays()
	if math.Abs(d[0]-4.5) > 1e-9 || math.Abs(d[1]-16.5) > 1e-9 || math.Abs(d[2]-24.5) > 1e-9 {
		t.Errorf("delays = %v, want [4.5 16.5 24.5]", d)
	}
	if bt.NumBuffers() != 1 {
		t.Errorf("NumBuffers = %d", bt.NumBuffers())
	}
}
