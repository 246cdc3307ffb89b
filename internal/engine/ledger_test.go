package engine

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/inst"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/forest_ledger.txt from the current trees")

// ledgerPath is the committed tree ledger of TestForestLedger.
var ledgerPath = filepath.Join("testdata", "forest_ledger.txt")

// ledgerEps are the bounds every ledger case is built at.
var ledgerEps = []float64{0, 0.05, 0.1, 0.3, 0.5, 1, 2}

// ledgerCtor is one constructor of the forest's users as the ledger
// runs it: a registered name, the geometry it is forced to, and the
// Params it takes at bound ε.
type ledgerCtor struct {
	name   string // the ledger's key, e.g. "bkrus/sparse"
	algo   string
	geo    Geometry
	steinr bool // a Hanan-grid constructor: L1 only, n ≤ ledgerSteinerMax
	params func(eps float64) Params
}

// ledgerSteinerMax caps the BKST cases: their Hanan grid has n² nodes.
const ledgerSteinerMax = 40

func ledgerCtors() []ledgerCtor {
	upper := func(eps float64) Params { return Params{Eps: eps} }
	window := func(eps float64) Params { return Params{Eps1: 0.3, Eps2: eps} }
	return []ledgerCtor{
		{"bkrus/dense", "bkrus", GeomDense, false, upper},
		{"bkrus/sparse", "bkrus", GeomSparse, false, upper},
		{"bkruslu/dense", "bkruslu", GeomDense, false, window},
		{"bkruslu/sparse", "bkruslu", GeomSparse, false, window},
		{"bkst", "bkst", GeomAuto, true, upper},
		{"bkstlu", "bkstlu", GeomAuto, true, window},
	}
}

// ledgerLayouts generate n points (the first is the source) from a
// seeded rng: the geometry that stresses the forest's ties and its
// floating point.
var ledgerLayouts = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []geom.Point
}{
	{"uniform", func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		return pts
	}},
	// An integer lattice in shuffled order: tied distances everywhere.
	{"lattice", func(rng *rand.Rand, n int) []geom.Point {
		side := 1
		for side*side < n {
			side++
		}
		pts := make([]geom.Point, 0, side*side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				pts = append(pts, geom.Point{X: float64(i), Y: float64(j)})
			}
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		return pts[:n]
	}},
	// Small integers: exact arithmetic, ties and some coincident points.
	{"smallint", func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20))}
		}
		return pts
	}},
	// A handful of sites, each holding many points: zero-length edges.
	{"coincident", func(rng *rand.Rand, n int) []geom.Point {
		sites := make([]geom.Point, 6)
		for i := range sites {
			sites[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = sites[rng.Intn(len(sites))]
		}
		return pts
	}},
	{"strip", func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 5}
		}
		return pts
	}},
	// Points on one slanted line: long chains of nearly equal paths.
	{"collinear", func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			t := rng.Float64() * 1000
			pts[i] = geom.Point{X: t, Y: 0.5*t + 3}
		}
		return pts
	}},
}

// ledgerCase is one instance of the ledger: a layout, a metric and a
// node count.
type ledgerCase struct {
	layout int
	metric geom.Metric
	n      int
	long   bool // run only without -short
}

func (c ledgerCase) String() string {
	return fmt.Sprintf("%s/%s/n=%d", ledgerLayouts[c.layout].name, c.metric, c.n)
}

func (c ledgerCase) instance() *inst.Instance {
	rng := rand.New(rand.NewSource(int64(c.n)*131 + int64(c.layout)))
	pts := ledgerLayouts[c.layout].gen(rng, c.n)
	return inst.MustNew(pts[0], pts[1:], c.metric)
}

func ledgerCases() []ledgerCase {
	var cases []ledgerCase
	for l := range ledgerLayouts {
		for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
			for _, n := range []int{5, 12, 40, 150, 600} {
				cases = append(cases, ledgerCase{layout: l, metric: m, n: n})
			}
		}
	}
	// Sparse-only rows at sizes where the forest's trees grow deep.
	cases = append(cases,
		ledgerCase{layout: 0, metric: geom.Manhattan, n: 4000, long: true},
		ledgerCase{layout: 4, metric: geom.Euclidean, n: 4000, long: true},
		ledgerCase{layout: 1, metric: geom.Manhattan, n: 2047, long: true},
		ledgerCase{layout: 5, metric: geom.Euclidean, n: 2047, long: true},
	)
	return cases
}

// ledgerDigest builds in with ctor at every ledger bound and hashes the
// edge lists, or the error where a build fails, in bound order. The
// builds share one scratch, as a sweep's do, so the edge stream is
// made once per case.
func ledgerDigest(ctor ledgerCtor, in *inst.Instance) string {
	h := sha256.New()
	var s core.Scratch
	for _, eps := range ledgerEps {
		p := ctor.params(eps)
		p.Geometry, p.Scratch = ctor.geo, &s
		r, err := Build(context.Background(), ctor.algo, in, p)
		if err != nil {
			fmt.Fprintf(h, "eps=%g error: %v\n", eps, err)
			continue
		}
		fmt.Fprintf(h, "eps=%g %s\n", eps, edgeString(r))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestForestLedger pins every tree the users of core.Forest build —
// bkrus and bkruslu on both substrates, bkst and bkstlu under L1 — to
// a SHA-256 per (constructor, case) over all ledger bounds, error
// strings included. A change to the forest's bookkeeping must leave
// each one unchanged. go test -run TestForestLedger -update rewrites
// the ledger. The n ≥ 2047 cases run the sparse constructors only, and
// only without -short.
func TestForestLedger(t *testing.T) {
	want := map[string]string{}
	if !*updateLedger {
		f, err := os.Open(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), " "); ok {
				want[k] = v
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	for _, c := range ledgerCases() {
		if c.long && testing.Short() {
			continue
		}
		in := c.instance()
		for _, ctor := range ledgerCtors() {
			if c.long && ctor.geo != GeomSparse ||
				ctor.steinr && (c.metric != geom.Manhattan || c.n > ledgerSteinerMax) {
				continue
			}
			key := ctor.name + "/" + c.String()
			got := ledgerDigest(ctor, in)
			lines = append(lines, key+" "+got)
			if !*updateLedger && want[key] != got {
				t.Errorf("%s on %s: digest %s, ledger %q", ctor.name, c, got, want[key])
			}
		}
		in.Release()
	}
	if *updateLedger {
		if testing.Short() {
			t.Fatal("-update needs the long cases: run without -short")
		}
		if err := os.WriteFile(ledgerPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
