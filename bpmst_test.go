package bpmst

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomNet(rng *rand.Rand, sinks int, extent float64) *Net {
	pts := make([]Point, sinks)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	n, err := NewNet(Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}, pts, Manhattan)
	if err != nil {
		panic(err)
	}
	return n
}

func TestNewNetValidation(t *testing.T) {
	if _, err := NewNet(Point{}, nil, Manhattan); err == nil {
		t.Error("sinkless net accepted")
	}
	n, err := NewNet(Point{X: 1, Y: 2}, []Point{{X: 4, Y: 6}}, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumSinks() != 1 || n.Metric() != Euclidean {
		t.Error("accessors wrong")
	}
	if n.Source() != (Point{X: 1, Y: 2}) || n.Terminal(1) != (Point{X: 4, Y: 6}) {
		t.Error("terminals wrong")
	}
	if n.R() != 5 || n.NearestR() != 5 {
		t.Errorf("R = %v, NearestR = %v, want 5", n.R(), n.NearestR())
	}
	if math.Abs(n.Bound(0.2)-6) > 1e-12 {
		t.Errorf("Bound(0.2) = %v, want 6", n.Bound(0.2))
	}
}

func TestClassicTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := randomNet(rng, 20, 100)
	mstT := n.MST()
	spt := n.SPT()
	maxT := n.MaxST()
	for _, tr := range []*Tree{mstT, spt, maxT} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if mstT.Cost() > spt.Cost()+1e-9 {
		t.Error("MST costlier than SPT on a uniform net (very unlikely)")
	}
	if maxT.Cost() < mstT.Cost() {
		t.Error("MaxST cheaper than MST")
	}
	if math.Abs(spt.Radius()-n.R()) > 1e-9 {
		t.Errorf("SPT radius = %v, want R = %v", spt.Radius(), n.R())
	}
	if spt.PathRatio() > 1+1e-12 {
		t.Errorf("SPT path ratio = %v", spt.PathRatio())
	}
}

func TestBKRUSFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := randomNet(rng, 15, 100)
	tr, err := BKRUS(n, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.WithinBound(0.1) {
		t.Error("bound violated")
	}
	if tr.PerfRatio(n.MST()) < 1-1e-9 {
		t.Error("cheaper than MST?!")
	}
	if len(tr.Edges()) != n.NumSinks() {
		t.Errorf("edge count = %d", len(tr.Edges()))
	}
	if tr.Net() != n {
		t.Error("Net() identity lost")
	}
	if _, err := BKRUS(n, -1); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestTreeMetrics(t *testing.T) {
	n, err := NewNet(Point{}, []Point{{X: 10, Y: 0}, {X: 0, Y: 4}}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BKRUS(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	// eps=0 on this net is the star: radius 10, shortest 4
	if tr.Radius() != 10 || tr.ShortestSinkPath() != 4 {
		t.Errorf("radius/shortest = %v/%v", tr.Radius(), tr.ShortestSinkPath())
	}
	if math.Abs(tr.Skew()-2.5) > 1e-12 {
		t.Errorf("skew = %v, want 2.5", tr.Skew())
	}
	if math.Abs(tr.PathRatio()-1) > 1e-12 {
		t.Errorf("path ratio = %v, want 1", tr.PathRatio())
	}
	d := tr.PathLengths()
	if d[0] != 0 || d[1] != 10 || d[2] != 4 {
		t.Errorf("path lengths = %v", d)
	}
}

func TestAllConstructorsAgreeOnBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := randomNet(rng, 10, 100)
	eps := 0.3
	constructors := map[string]func() (*Tree, error){
		"BKRUS": func() (*Tree, error) { return BKRUS(n, eps) },
		"BPRIM": func() (*Tree, error) { return BPRIM(n, eps) },
		"BRBC":  func() (*Tree, error) { return BRBC(n, eps) },
		"BKH2":  func() (*Tree, error) { return BKH2(n, eps) },
		"BKEX":  func() (*Tree, error) { return BKEX(n, eps, 3) },
		"BMSTG": func() (*Tree, error) { return BMSTG(n, eps, GabowOptions{}) },
	}
	for name, f := range constructors {
		tr, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tr.WithinBound(eps) {
			t.Errorf("%s violates the bound", name)
		}
	}
}

func TestCostOrderingMatchesFigure11(t *testing.T) {
	// BMSTG <= BKEX <= BKH2 <= BKRUS <= SPT-ish ordering on average, and
	// MaxST is the most expensive.
	rng := rand.New(rand.NewSource(4))
	var g, e2, h2, bk float64
	for trial := 0; trial < 10; trial++ {
		n := randomNet(rng, 8, 100)
		eps := 0.2
		tg, err := BMSTG(n, eps, GabowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		te, err := BKEX(n, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		th, err := BKH2(n, eps)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := BKRUS(n, eps)
		if err != nil {
			t.Fatal(err)
		}
		g += tg.Cost()
		e2 += te.Cost()
		h2 += th.Cost()
		bk += tb.Cost()
		if tg.Cost() > te.Cost()+1e-9 {
			t.Errorf("trial %d: BMSTG above BKEX", trial)
		}
		if te.Cost() > th.Cost()+1e-9 {
			t.Errorf("trial %d: BKEX above BKH2", trial)
		}
		if th.Cost() > tb.Cost()+1e-9 {
			t.Errorf("trial %d: BKH2 above BKRUS", trial)
		}
	}
	if !(g <= e2+1e-9 && e2 <= h2+1e-9 && h2 <= bk+1e-9) {
		t.Errorf("cost chart ordering broken: %v %v %v %v", g, e2, h2, bk)
	}
}

func TestBKRUSLUFacade(t *testing.T) {
	n, err := NewNet(Point{}, []Point{{X: 10, Y: 0}, {X: 9, Y: 2}}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BKRUSLU(n, 0.95, 0.0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	tr, err := BKRUSLU(n, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Skew() < 1 {
		t.Errorf("skew = %v < 1", tr.Skew())
	}
}

func TestBMSTGBudgetError(t *testing.T) {
	n, err := NewNet(Point{}, []Point{
		{X: 3.4, Y: 2.8}, {X: 5.2, Y: 2.6}, {X: 4, Y: 0}, {X: 0, Y: 7.7},
	}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	// bound 8.3 needs more than one tree; budget 1 must fail
	_, err = BMSTG(n, 8.3/n.R()-1, GabowOptions{MaxTrees: 1})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("want ErrBudget, got %v", err)
	}
}

func TestImproveFacade(t *testing.T) {
	n, err := NewNet(Point{}, []Point{
		{X: 3.4, Y: 2.8}, {X: 5.2, Y: 2.6}, {X: 4, Y: 0}, {X: 0, Y: 7.7},
	}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	eps := 8.3/n.R() - 1
	start, err := BKRUS(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	better, err := Improve(start, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if better.Cost() > start.Cost() {
		t.Error("Improve made it worse")
	}
}

func TestElmoreFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomNet(rng, 8, 50)
	m := DefaultRCModel()
	tr, err := BKRUSElmore(n, 0.5, m)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1.5 * ElmoreStarR(n, m)
	if ElmoreRadius(tr, m) > bound+1e-9 {
		t.Error("Elmore bound violated")
	}
	d := ElmoreDelays(tr, m)
	if len(d) != n.NumSinks()+1 {
		t.Errorf("delay vector length %d", len(d))
	}
}

// An all-zero RCModel means DefaultRCModel() in the Elmore
// constructors, as it does for every engine caller: both build the
// default model's tree.
func TestElmoreZeroModelIsDefault(t *testing.T) {
	// At this extent the wires' RC matters: a zero model would let
	// every merge through and build the MST.
	n := randomNet(rand.New(rand.NewSource(12)), 12, 1000)
	for name, build := range map[string]func(*Net, float64, RCModel) (*Tree, error){
		"BKRUSElmore": BKRUSElmore, "BKH2Elmore": BKH2Elmore,
	} {
		zero, err := build(n, 0.3, RCModel{})
		if err != nil {
			t.Fatal(err)
		}
		def, err := build(n, 0.3, DefaultRCModel())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(zero.Edges()) != fmt.Sprint(def.Edges()) {
			t.Errorf("%s: the zero model built %v, the default model %v", name, zero.Edges(), def.Edges())
		}
	}
}

func TestBKSTFacade(t *testing.T) {
	n, err := NewNet(Point{}, []Point{
		{X: 2, Y: 0}, {X: 1, Y: 2}, {X: 1, Y: -2},
	}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BKST(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Cost()-6) > 1e-9 {
		t.Errorf("cost = %v, want 6", st.Cost())
	}
	if st.PerfRatio(n.MST()) >= 1 {
		t.Errorf("Steiner perf ratio = %v, want < 1", st.PerfRatio(n.MST()))
	}
	if st.Radius() > n.R()+1e-9 || st.PathRatio() > 1+1e-9 {
		t.Error("Steiner radius above bound")
	}
	if len(st.Segments()) == 0 {
		t.Error("no segments")
	}
	if st.Net() != n {
		t.Error("Net identity lost")
	}
	if len(st.PathLengths()) != 4 {
		t.Error("PathLengths length wrong")
	}
	// Euclidean nets are rejected
	eu, _ := NewNet(Point{}, []Point{{X: 1, Y: 1}}, Euclidean)
	if _, err := BKST(eu, 0); err == nil {
		t.Error("Euclidean BKST accepted")
	}
}

// Property: the public facade preserves the core bound guarantee across
// metrics and eps values.
func TestFacadeBoundProperty(t *testing.T) {
	f := func(seed int64, szRaw, epsRaw, metRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sinks := int(szRaw%15) + 1
		eps := float64(epsRaw%200) / 100
		metric := Manhattan
		if metRaw%2 == 1 {
			metric = Euclidean
		}
		pts := make([]Point, sinks)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		n, err := NewNet(Point{X: 50, Y: 50}, pts, metric)
		if err != nil {
			return false
		}
		tr, err := BKRUS(n, eps)
		if err != nil {
			return false
		}
		return tr.Validate() == nil && tr.WithinBound(eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZeroRNetRatios(t *testing.T) {
	// all sinks coincide with the source: R = 0 edge case
	n, err := NewNet(Point{}, []Point{{X: 0, Y: 0}}, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BKRUS(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tr.PathRatio(), 1) && tr.PathRatio() != 0 {
		// R = 0: PathRatio defined as +Inf by the facade
		t.Errorf("PathRatio = %v", tr.PathRatio())
	}
}

func TestAHHKFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := randomNet(rng, 12, 100)
	spt, err := AHHK(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spt.Radius()-n.R()) > 1e-9 {
		t.Errorf("AHHK(1) radius %v != R %v", spt.Radius(), n.R())
	}
	mstT, err := AHHK(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mstT.Cost()-n.MST().Cost()) > 1e-9 {
		t.Errorf("AHHK(0) cost %v != MST %v", mstT.Cost(), n.MST().Cost())
	}
	mid, err := AHHK(n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Cost() < mstT.Cost()-1e-9 || mid.Radius() < spt.Radius()-1e-9 {
		t.Error("AHHK(0.5) outside the endpoint sandwich")
	}
	if _, err := AHHK(n, 2); err == nil {
		t.Error("c out of range accepted")
	}
}
