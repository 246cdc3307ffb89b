package delay

import (
	"context"
	"math/rand"
	"testing"
)

func TestImproveElmoreValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(rng, 5, 50)
	m := DefaultModel()
	start, err := BKRUSElmoreBuild(context.Background(), in, 0.5, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ImproveElmore(context.Background(), in, start, -1, m, 2, 0); err == nil {
		t.Error("negative eps accepted")
	}
	if _, err := ImproveElmore(context.Background(), in, start, 0.5, Model{RUnit: -1}, 2, 0); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestBKH2ElmoreNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := Model{RUnit: 0.1, CUnit: 0.2, RDriver: 0.5, CDriver: 1}
	improvedAny := false
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(rng, 4+rng.Intn(8), 50)
		eps := 0.2 + float64(rng.Intn(8))/10
		start, err := BKRUSElmoreBuild(context.Background(), in, eps, m)
		if err != nil {
			t.Fatal(err)
		}
		better, err := ImproveElmore(context.Background(), in, start, eps, m, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if better.Cost() > start.Cost()+1e-9 {
			t.Errorf("trial %d: BKH2Elmore increased cost %v -> %v", trial, start.Cost(), better.Cost())
		}
		if better.Cost() < start.Cost()-1e-9 {
			improvedAny = true
		}
		bound := (1 + eps) * StarR(in, m)
		if r := SourceRadius(better, m); !withinBound(r, bound) {
			t.Errorf("trial %d: delay bound violated: %v > %v", trial, r, bound)
		}
		if err := better.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !improvedAny {
		t.Log("no trial improved (legal, but exchanges usually find something)")
	}
}
