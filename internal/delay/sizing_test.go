package delay

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/mst"
)

func TestNewSizedTreeValidation(t *testing.T) {
	tr := chainTree(3, 1)
	if _, err := NewSizedTree(tr, Model{RUnit: -1}); err == nil {
		t.Error("invalid model accepted")
	}
	forest := chainTree(3, 1)
	forest.RemoveEdge(0, 1)
	if _, err := NewSizedTree(forest, DefaultModel()); err == nil {
		t.Error("forest accepted")
	}
}

func TestUniformWidthMatchesPlainElmore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	in := inst.MustNew(geom.Point{}, pts, geom.Manhattan)
	tr := mst.Kruskal(in.DistMatrix())
	m := Model{RUnit: 0.2, CUnit: 0.3, RDriver: 2, CDriver: 1}
	st, err := NewSizedTree(tr, m)
	if err != nil {
		t.Fatal(err)
	}
	want := SourceDelays(tr, m)
	got := st.Delays()
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("node %d: sized(1.0) %v vs plain %v", v, got[v], want[v])
		}
	}
	if st.WireArea() != tr.Cost() {
		t.Errorf("uniform min-width area %v != wirelength %v", st.WireArea(), tr.Cost())
	}
}

func TestSizeWiresValidation(t *testing.T) {
	tr := chainTree(3, 1)
	m := DefaultModel()
	if _, err := SizeWires(tr, m, nil, 3); err == nil {
		t.Error("empty width set accepted")
	}
	if _, err := SizeWires(tr, m, []float64{2, 4}, 3); err == nil {
		t.Error("width set not starting at 1 accepted")
	}
	if _, err := SizeWires(tr, m, []float64{1, 4, 2}, 3); err == nil {
		t.Error("unsorted width set accepted")
	}
}

// A resistive trunk driving a heavy load: widening the trunk must help.
func TestSizeWiresImprovesTrunk(t *testing.T) {
	tr := chainTree(4, 50) // long wires
	m := Model{RUnit: 1, CUnit: 0.01, RDriver: 0.1, CDriver: 0,
		Load: []float64{0, 0, 0, 20}} // big load at the far end
	st, err := SizeWires(tr, m, []float64{1, 2, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSizedTree(tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorstDelay() >= base.WorstDelay() {
		t.Errorf("sizing did not improve: %v vs %v", st.WorstDelay(), base.WorstDelay())
	}
	// wires should have been widened, growing area
	if st.WireArea() <= base.WireArea() {
		t.Error("no wire got widened")
	}
	for _, w := range st.Widths {
		if w != 1 && w != 2 && w != 4 {
			t.Errorf("width %v outside allowed set", w)
		}
	}
}

func TestSizeWiresNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		pts := make([]geom.Point, 8)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		}
		in := inst.MustNew(geom.Point{}, pts, geom.Manhattan)
		tr := mst.Kruskal(in.DistMatrix())
		m := Model{RUnit: 0.3, CUnit: 0.1, RDriver: 1, CDriver: 1}
		st, err := SizeWires(tr, m, []float64{1, 1.5, 2}, 4)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := NewSizedTree(tr, m)
		if st.WorstDelay() > base.WorstDelay()+1e-9 {
			t.Errorf("trial %d: sizing hurt", trial)
		}
	}
}

func TestSizeWiresRespectsChangeLimit(t *testing.T) {
	tr := chainTree(6, 30)
	m := Model{RUnit: 1, CUnit: 0.01, RDriver: 0.1, Load: []float64{0, 0, 0, 0, 0, 10}}
	st, err := SizeWires(tr, m, []float64{1, 2, 4, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	bumps := 0.0
	for _, w := range st.Widths {
		if w > 1 {
			bumps++ // each edge above 1 consumed at least one change
		}
	}
	if bumps > 2 {
		t.Errorf("more widened edges (%v) than the change budget", bumps)
	}
}
