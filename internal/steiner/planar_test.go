package steiner

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/inst"
)

func TestBKSTPlanarValidation(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 1}}, geom.Manhattan)
	if _, err := bkstPlanar(in, -1); err == nil {
		t.Error("negative eps accepted")
	}
	eu := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 1}}, geom.Euclidean)
	if _, err := bkstPlanar(eu, 0); err == nil {
		t.Error("Euclidean accepted")
	}
}

func TestBKSTPlanarAlwaysAdjacent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	built := 0
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(rng, 3+rng.Intn(10), 30)
		eps := float64(rng.Intn(12)) / 10
		st, err := bkstPlanar(in, eps)
		if err != nil {
			if errors.Is(err, ErrNotPlanar) || errors.Is(err, ErrInfeasible) {
				continue // honest planar failure
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		built++
		if !IsPlanarEmbedding(st) {
			t.Errorf("trial %d: planar construction produced a jumper", trial)
		}
		if st.Radius() > in.Bound(eps)+1e-9 {
			t.Errorf("trial %d: bound violated", trial)
		}
	}
	if built < 40 {
		t.Errorf("planar construction succeeded only %d/50 times; suspicious", built)
	}
}

func TestBKSTMayUseJumpersWherePlanarFails(t *testing.T) {
	// Over many random instances, whenever the planar variant fails the
	// standard one must still succeed (via layered jumpers).
	rng := rand.New(rand.NewSource(33))
	planarFailed := 0
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, 4+rng.Intn(9), 30)
		eps := float64(rng.Intn(8)) / 10
		if _, err := bkstPlanar(in, eps); err != nil {
			planarFailed++
			if _, err := bkst(in, eps); err != nil {
				t.Errorf("trial %d: standard BKST failed too: %v", trial, err)
			}
		}
	}
	t.Logf("planar failures: %d/200", planarFailed)
}
