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
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/geom"
	"repro/internal/inst"
)

var updateLedger = flag.Bool("update", false, "rewrite the tree ledgers in testdata from the current trees")

// ledgerPath is the committed tree ledger of TestForestLedger.
var ledgerPath = filepath.Join("testdata", "forest_ledger.txt")

// constructorLedgerPath is the committed tree ledger of
// TestConstructorLedger.
var constructorLedgerPath = filepath.Join("testdata", "constructor_ledger.txt")

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
	want := readLedger(t, ledgerPath)
	var lines []string
	for _, c := range ledgerCases() {
		skip := c.long && testing.Short()
		var in *inst.Instance
		if !skip {
			in = c.instance()
		}
		for _, ctor := range ledgerCtors() {
			if c.long && ctor.geo != GeomSparse ||
				ctor.steinr && (c.metric != geom.Manhattan || c.n > ledgerSteinerMax) {
				continue
			}
			key := ctor.name + "/" + c.String()
			if skip {
				delete(want, key) // a long row, not run under -short
				continue
			}
			got := ledgerDigest(ctor, in)
			lines = append(lines, key+" "+got)
			if !*updateLedger && want[key] != got {
				t.Errorf("%s on %s: digest %s, ledger %q", ctor.name, c, got, want[key])
			}
			delete(want, key)
		}
		if in != nil {
			in.Release()
		}
	}
	unproduced(t, want)
	writeLedger(t, ledgerPath, lines)
}

// unproduced fails for every ledger row left in want: a row no case
// produced any more, so the ledger's coverage shrank.
func unproduced(t *testing.T, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Errorf("%s: in the ledger but no longer built", k)
	}
}

// readLedger loads a committed ledger as key → digest; under -update it
// returns an empty map, since every line is about to be rewritten.
func readLedger(t *testing.T, path string) map[string]string {
	t.Helper()
	want := map[string]string{}
	if *updateLedger {
		return want
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeLedger rewrites path from lines under -update and does nothing
// otherwise.
func writeLedger(t *testing.T, path string, lines []string) {
	t.Helper()
	if !*updateLedger {
		return
	}
	if testing.Short() {
		t.Fatal("-update needs the long cases: run without -short")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// registryRow is one registered constructor that TestForestLedger does
// not run, as TestConstructorLedger runs it: every Params it is built
// at, in order, and the largest instance it is built on.
type registryRow struct {
	name   string // the ledger's key, e.g. "bkex/depth=0"
	algo   string
	maxN   int  // the exact searches and the exchange passes stay small
	l1only bool // a Hanan-grid constructor
	params []Params
}

// strongDriver is an RC model whose driver is strong enough that the
// Elmore constructors merge sinks instead of falling back to the star.
var strongDriver = delay.Model{RUnit: 0.1, CUnit: 0.2, RDriver: 0.01, CDriver: 0.1}

func registryRows() []registryRow {
	each := func(p func(eps float64) Params) []Params {
		ps := make([]Params, len(ledgerEps))
		for i, eps := range ledgerEps {
			ps[i] = p(eps)
		}
		return ps
	}
	upper := each(func(eps float64) Params { return Params{Eps: eps} })
	cat := func(pss ...[]Params) []Params {
		var out []Params
		for _, ps := range pss {
			out = append(out, ps...)
		}
		return out
	}
	return []registryRow{
		{"mst", "mst", 600, false, []Params{{}}},
		{"spt", "spt", 600, false, []Params{{}}},
		{"maxst", "maxst", 600, false, []Params{{}}},
		{"bprim", "bprim", 600, false, upper},
		{"brbc", "brbc", 600, false, upper},
		{"ahhk", "ahhk", 600, false, []Params{{AHHKC: 0}, {AHHKC: 0.25}, {AHHKC: 0.5}, {AHHKC: 1}, {AHHKC: 1.5}}},
		{"bkh2", "bkh2", 12, false, upper},
		{"bkh2/xbudget=5000", "bkh2", 40, false, each(func(eps float64) Params { return Params{Eps: eps, ExchangeBudget: 5000} })},
		{"bkex/depth=0", "bkex", 5, false, upper},
		{"bkex/depth=2", "bkex", 10, false, each(func(eps float64) Params { return Params{Eps: eps, ExchangeDepth: 2} })},
		{"bmstg", "bmstg", 10, false, cat(upper, []Params{{Eps: 0, GabowBudget: 3}})},
		// An infeasible window exhausts the default budget of 200 000
		// trees; 2000 keeps the row fast and still reaches ErrBudget.
		{"bmstglu", "bmstglu", 10, false, each(func(eps float64) Params { return Params{Eps1: 0.3, Eps2: eps, GabowBudget: 2000} })},
		{"elmore", "elmore", 40, false, cat(upper, each(func(eps float64) Params { return Params{Eps: eps, RC: strongDriver} }))},
		{"bkh2elmore", "bkh2elmore", 12, false, cat(upper, each(func(eps float64) Params { return Params{Eps: eps, RC: strongDriver} }))},
		{"bkstplanar", "bkstplanar", ledgerSteinerMax, true, upper},
	}
}

// registryCases are the ledger layouts under both metrics at the sizes
// the registry rows run: n = 10 keeps nine sinks, the largest the
// exact searches take.
func registryCases() []ledgerCase {
	var cases []ledgerCase
	for l := range ledgerLayouts {
		for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
			for _, n := range []int{5, 10, 12, 40, 150, 600} {
				cases = append(cases, ledgerCase{layout: l, metric: m, n: n})
			}
		}
	}
	return cases
}

// TestConstructorLedger pins every tree of the registered constructors
// TestForestLedger does not run — the references, the baselines, the
// exchange passes, the exact searches, the Elmore variants and
// bkstplanar — to a SHA-256 per (constructor, case) over the row's
// parameter list, error strings included. Together the two ledgers
// cover all seventeen registrations. go test -run Ledger -update
// rewrites both.
func TestConstructorLedger(t *testing.T) {
	want := readLedger(t, constructorLedgerPath)
	var lines []string
	for _, c := range registryCases() {
		in := c.instance()
		for _, row := range registryRows() {
			if c.n > row.maxN || row.l1only && c.metric != geom.Manhattan {
				continue
			}
			key := row.name + "/" + c.String()
			got := paramsDigest(row.algo, in, row.params)
			lines = append(lines, key+" "+got)
			if !*updateLedger && want[key] != got {
				t.Errorf("%s on %s: digest %s, ledger %q", row.name, c, got, want[key])
			}
			delete(want, key)
		}
		in.Release()
	}
	unproduced(t, want)
	writeLedger(t, constructorLedgerPath, lines)
}

// paramsDigest builds in with algo at each of ps, on one shared
// scratch, and hashes the edge lists, or the error where a build
// fails, in order.
func paramsDigest(algo string, in *inst.Instance, ps []Params) string {
	h := sha256.New()
	var s core.Scratch
	for i, p := range ps {
		p.Scratch = &s
		r, err := Build(context.Background(), algo, in, p)
		if err != nil {
			fmt.Fprintf(h, "%d error: %v\n", i, err)
			continue
		}
		fmt.Fprintf(h, "%d %s\n", i, edgeString(r))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
