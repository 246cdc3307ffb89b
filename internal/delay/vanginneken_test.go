package delay

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

// bruteBestBuffers enumerates every placement of at most maxBuffers
// buffers over the non-source nodes and returns the minimum achievable
// worst delay.
func bruteBestBuffers(t *graph.Tree, m Model, buf Buffer, maxBuffers int) float64 {
	n := t.N
	best := math.Inf(1)
	at := make([]bool, n)
	var rec func(v, used int)
	rec = func(v, used int) {
		if v == n {
			bt, err := NewBufferedTree(t, m, buf, at)
			if err != nil {
				return
			}
			if w := bt.WorstDelay(); w < best {
				best = w
			}
			return
		}
		rec(v+1, used)
		if used < maxBuffers {
			at[v] = true
			rec(v+1, used+1)
			at[v] = false
		}
	}
	rec(1, 0)
	return best
}

func TestVanGinnekenValidation(t *testing.T) {
	tr := chainTree(3, 1)
	if _, err := VanGinneken(tr, Model{RUnit: -1}, Buffer{}, 1); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := VanGinneken(tr, DefaultModel(), Buffer{RDrive: -1}, 1); err == nil {
		t.Error("invalid buffer accepted")
	}
	forest := chainTree(3, 1)
	forest.RemoveEdge(0, 1)
	if _, err := VanGinneken(forest, DefaultModel(), Buffer{}, 1); err == nil {
		t.Error("forest accepted")
	}
}

// vgCase is one van Ginneken input: a tree, its RC model, the buffer
// cell, the buffer budget and, for nets built to need repeaters, the
// least relative worst-delay gain the placement must reach.
type vgCase struct {
	tr      *graph.Tree
	m       Model
	buf     Buffer
	maxBuf  int
	minGain float64
}

// checkVanGinneken runs the DP on c and checks its placement against the
// budget, the brute-force optimum, the unbuffered tree and c.minGain.
func checkVanGinneken(t *testing.T, name string, c vgCase) {
	t.Helper()
	vg, err := VanGinneken(c.tr, c.m, c.buf, c.maxBuf)
	if err != nil {
		t.Fatal(err)
	}
	if vg.NumBuffers() > c.maxBuf {
		t.Errorf("%s: %d buffers over limit %d", name, vg.NumBuffers(), c.maxBuf)
	}
	got := vg.WorstDelay()
	want := bruteBestBuffers(c.tr, c.m, c.buf, c.maxBuf)
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Errorf("%s: VG %v vs brute optimum %v", name, got, want)
	}
	unbuffered := SourceRadius(c.tr, c.m)
	if got > unbuffered+1e-9 {
		t.Errorf("%s: buffering made the worst delay worse: %v > %v", name, got, unbuffered)
	}
	if gain := 1 - got/unbuffered; gain < c.minGain {
		t.Errorf("%s: buffering improved worst delay only %.1f%%, expected >= %.0f%%",
			name, gain*100, c.minGain*100)
	}
}

// The DP must be exactly optimal over node placements: compare against
// brute force on small random trees.
func TestVanGinnekenMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		pts := make([]geom.Point, 7)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		}
		in := inst.MustNew(geom.Point{}, pts, geom.Manhattan)
		tr := mst.Kruskal(in.DistMatrix())
		loads := make([]float64, tr.N)
		for i := 1; i < tr.N; i++ {
			loads[i] = rng.Float64() * 3
		}
		m := Model{RUnit: 0.3, CUnit: 0.2, RDriver: 2 + rng.Float64()*4, CDriver: 1, Load: loads}
		buf := Buffer{RDrive: 0.3, CIn: 0.3, Delay: 1 + rng.Float64()*4}
		checkVanGinneken(t, fmt.Sprintf("trial %d", trial),
			vgCase{tr: tr, m: m, buf: buf, maxBuf: 1 + rng.Intn(3)})
	}
}

// A weak driver on a long heavily loaded chain: buffering must help.
func TestInsertBuffersImprovesLongChain(t *testing.T) {
	loads := make([]float64, 12)
	for i := 1; i < len(loads); i++ {
		loads[i] = 2
	}
	checkVanGinneken(t, "weak-driver chain", vgCase{
		tr:      chainTree(12, 10),
		m:       Model{RUnit: 0.5, CUnit: 0.5, RDriver: 10, CDriver: 1, Load: loads},
		buf:     Buffer{RDrive: 0.5, CIn: 0.2, Delay: 3},
		maxBuf:  4,
		minGain: 0.3,
	})
}

func TestInsertBuffersNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		pts := make([]geom.Point, 8)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		in := inst.MustNew(geom.Point{}, pts, geom.Manhattan)
		checkVanGinneken(t, fmt.Sprintf("trial %d", trial), vgCase{
			tr:     mst.Kruskal(in.DistMatrix()),
			m:      Model{RUnit: 0.2, CUnit: 0.3, RDriver: 3, CDriver: 1},
			buf:    Buffer{RDrive: 1, CIn: 0.3, Delay: 2},
			maxBuf: 3,
		})
	}
}

func TestInsertBuffersRespectsLimit(t *testing.T) {
	checkVanGinneken(t, "chain", vgCase{
		tr:     chainTree(10, 10),
		m:      Model{RUnit: 0.5, CUnit: 0.5, RDriver: 10, CDriver: 1},
		buf:    Buffer{RDrive: 0.2, CIn: 0.1, Delay: 0.5},
		maxBuf: 2,
	})
}

func TestVanGinnekenUnlimitedBuffers(t *testing.T) {
	tr := chainTree(6, 40)
	loads := make([]float64, 6)
	loads[5] = 10
	m := Model{RUnit: 0.5, CUnit: 0.5, RDriver: 5, CDriver: 1, Load: loads}
	buf := Buffer{RDrive: 0.2, CIn: 0.1, Delay: 1}
	vg, err := VanGinneken(tr, m, buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	unbuffered := SourceRadius(tr, m)
	if vg.WorstDelay() >= unbuffered {
		t.Errorf("unlimited VG (%v) should beat unbuffered (%v) on a long loaded chain",
			vg.WorstDelay(), unbuffered)
	}
}

func TestVanGinnekenZeroBudgetIsUnbuffered(t *testing.T) {
	tr := chainTree(5, 10)
	m := DefaultModel()
	buf := Buffer{RDrive: 0.5, CIn: 0.5, Delay: 5}
	vg, err := VanGinneken(tr, m, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vg.NumBuffers() != 0 {
		t.Errorf("zero budget placed %d buffers", vg.NumBuffers())
	}
	if got, want := vg.WorstDelay(), SourceRadius(tr, m); got != want {
		t.Errorf("zero-budget delay %v differs from plain Elmore %v", got, want)
	}
}
