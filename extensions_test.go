package bpmst

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestBKSTLUFacade(t *testing.T) {
	// zero-skew ring on the Manhattan circle
	sinks := make([]Point, 6)
	for i := range sinks {
		tt := float64(i) * 2
		sinks[i] = Point{X: 12 - tt, Y: tt}
	}
	n, err := NewNet(Point{}, sinks, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BKSTLU(n, 1.0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	for term, d := range st.PathLengths() {
		if term != 0 && math.Abs(d-12) > 1e-9 {
			t.Errorf("terminal %d path %v, want 12", term, d)
		}
	}
	// an infeasible window errors with the public sentinel
	tight, err := NewNet(Point{}, []Point{{X: 10, Y: 0}, {X: 1, Y: 0}}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BKSTLU(tight, 0.95, 0.0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestBKSTPlanarFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := randomNet(rng, 8, 30)
	st, err := BKSTPlanar(n, 0.5)
	if err != nil {
		t.Skipf("planar completion failed on this net: %v", err)
	}
	if !st.IsPlanar() {
		t.Error("planar construction produced a non-planar embedding")
	}
	if st.Radius() > n.Bound(0.5)+1e-9 {
		t.Error("bound violated")
	}
}

func TestInsertBuffersFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomNet(rng, 10, 400)
	m := RCModel{RUnit: 0.1, CUnit: 0.3, RDriver: 8, CDriver: 1}
	tree, err := BKRUS(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	before := ElmoreRadius(tree, m)
	buffered, err := InsertBuffers(tree, m, BufferSpec{RDrive: 0.5, CIn: 0.4, Delay: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if buffered.WorstDelay() > before+1e-9 {
		t.Error("buffering made things worse")
	}
	if buffered.NumBuffers() > 3 {
		t.Errorf("placed %d buffers, limit 3", buffered.NumBuffers())
	}
	if got := len(buffered.BufferTerminals()); got != buffered.NumBuffers() {
		t.Errorf("BufferTerminals length %d != NumBuffers %d", got, buffered.NumBuffers())
	}
	if len(buffered.Delays()) != n.NumSinks()+1 {
		t.Error("Delays length wrong")
	}
}

func TestSizeWiresFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := randomNet(rng, 8, 300)
	m := RCModel{RUnit: 0.5, CUnit: 0.05, RDriver: 0.2, CDriver: 1}
	tree, err := BKRUS(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := SizeWires(tree, m, []float64{1, 2, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sized.WorstDelay() > ElmoreRadius(tree, m)+1e-9 {
		t.Error("sizing made worst delay worse")
	}
	if len(sized.Widths()) != len(tree.Edges()) {
		t.Error("width vector length mismatch")
	}
	if sized.WireArea() < tree.Cost()-1e-9 {
		t.Error("area below minimum-width wirelength")
	}
	if len(sized.Delays()) != n.NumSinks()+1 {
		t.Error("delay vector length mismatch")
	}
	if _, err := SizeWires(tree, m, []float64{2}, 5); err == nil {
		t.Error("bad width set accepted")
	}
}
