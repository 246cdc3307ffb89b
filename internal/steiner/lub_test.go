package steiner

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/inst"
)

func TestBKSTLUValidation(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 1}}, geom.Manhattan)
	if _, err := bkstlu(in, -1, 0.5); err == nil {
		t.Error("negative eps1 accepted")
	}
	if _, err := bkstlu(in, 0.5, -1); err == nil {
		t.Error("negative eps2 accepted")
	}
	eu := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 1}}, geom.Euclidean)
	if _, err := bkstlu(eu, 0, 0.5); err == nil {
		t.Error("Euclidean accepted")
	}
}

func TestBKSTLUZeroLowerMatchesBKST(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 8, 30)
		a, errA := bkst(in, 0.4)
		b, errB := bkstlu(in, 0, 0.4)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: feasibility disagrees: %v vs %v", trial, errA, errB)
		}
		if errA == nil && a.Cost() != b.Cost() {
			t.Errorf("trial %d: cost %v vs %v", trial, a.Cost(), b.Cost())
		}
	}
}

func TestBKSTLUBoundsRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	feasible := 0
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 3+rng.Intn(8), 30)
		eps1 := float64(rng.Intn(7)) / 10
		eps2 := float64(rng.Intn(12)) / 10
		st, err := bkstlu(in, eps1, eps2)
		if err != nil {
			continue // infeasible windows are expected
		}
		feasible++
		if err := st.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := core.LowerUpper(in, eps1, eps2)
		for term, d := range st.PathLengths() {
			if term == 0 {
				continue
			}
			if d < b.Lower-1e-9 || d > b.Upper+1e-9 {
				t.Errorf("trial %d: terminal %d path %v outside [%v, %v]",
					trial, term, d, b.Lower, b.Upper)
			}
		}
	}
	if feasible == 0 {
		t.Error("no LU Steiner window was feasible across 40 trials; suspicious")
	}
}

func TestBKSTLUInfeasibleWindow(t *testing.T) {
	// Single near sink plus far sink: the near sink's path must reach at
	// least 0.95*R but any detour overshoots the upper bound.
	in := inst.MustNew(geom.Point{},
		[]geom.Point{{X: 10, Y: 0}, {X: 1, Y: 0}}, geom.Manhattan)
	if _, err := bkstlu(in, 0.95, 0.0); err == nil {
		t.Error("infeasible window accepted")
	}
}

func TestBKSTLUZeroSkewRing(t *testing.T) {
	// Sinks on the Manhattan circle: the window [R, R] forces every path
	// to exactly R — achievable with direct connections.
	sinks := make([]geom.Point, 6)
	for i := range sinks {
		tt := float64(i) * 2
		sinks[i] = geom.Point{X: 12 - tt, Y: tt}
	}
	in := inst.MustNew(geom.Point{}, sinks, geom.Manhattan)
	st, err := bkstlu(in, 1.0, 0.0)
	if err != nil {
		t.Fatalf("zero-skew ring infeasible: %v", err)
	}
	for term, d := range st.PathLengths() {
		if term == 0 {
			continue
		}
		if d < 12-1e-9 || d > 12+1e-9 {
			t.Errorf("terminal %d path %v, want exactly 12", term, d)
		}
	}
}
