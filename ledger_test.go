package bpmst

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

	"repro/internal/inst"
	"repro/internal/router"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/api_ledger.txt from the current trees")

// apiLedgerPath is the committed tree ledger of TestAPILedger.
var apiLedgerPath = filepath.Join("testdata", "api_ledger.txt")

// apiEps are the bounds every bounded public constructor is built at.
var apiEps = []float64{0, 0.1, 0.5, 2}

// strongRC is an RC model whose driver is strong enough that the
// Elmore constructors merge sinks instead of falling back to the star.
var strongRC = RCModel{RUnit: 0.1, CUnit: 0.2, RDriver: 0.01, CDriver: 0.1}

// apiNet is one net of the ledger.
type apiNet struct {
	name string
	net  *Net
}

// apiNets are seeded uniform and small-integer nets of 4, 9 and 30
// sinks under both metrics: nine sinks is the most the exact searches
// take, and the small integers tie many distances.
func apiNets() []apiNet {
	var nets []apiNet
	for _, m := range []Metric{Manhattan, Euclidean} {
		for _, layout := range []string{"uniform", "smallint"} {
			for _, sinks := range []int{4, 9, 30} {
				rng := rand.New(rand.NewSource(int64(sinks)*7 + int64(len(layout))))
				pt := func() Point {
					if layout == "uniform" {
						return Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
					}
					return Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20))}
				}
				pts := make([]Point, sinks)
				for i := range pts {
					pts[i] = pt()
				}
				n, err := NewNet(pt(), pts, m)
				if err != nil {
					panic(err)
				}
				nets = append(nets, apiNet{fmt.Sprintf("%s/%s/sinks=%d", layout, m, sinks), n})
			}
		}
	}
	return nets
}

// treeLine is a public tree's identity in the ledger: its edge list,
// or the error where the build failed.
func treeLine(t *Tree, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(t.Edges())
}

// steinerLine is treeLine for a Steiner tree: its segments.
func steinerLine(st *SteinerTree, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(st.Segments())
}

// apiRow is one public constructor as the ledger runs it.
type apiRow struct {
	name     string
	maxSinks int
	l1only   bool // a Hanan-grid constructor
	build    func(n *Net) []string
}

// perEps runs one bounded constructor at every apiEps.
func perEps(f func(n *Net, eps float64) string) func(n *Net) []string {
	return func(n *Net) []string {
		out := make([]string, len(apiEps))
		for i, eps := range apiEps {
			out[i] = fmt.Sprintf("eps=%g %s", eps, f(n, eps))
		}
		return out
	}
}

func apiRows() []apiRow {
	one := func(f func(n *Net) *Tree) func(n *Net) []string {
		return func(n *Net) []string { return []string{treeLine(f(n), nil)} }
	}
	return []apiRow{
		{"MST", 30, false, one((*Net).MST)},
		{"SPT", 30, false, one((*Net).SPT)},
		{"MaxST", 30, false, one((*Net).MaxST)},
		{"BKRUS", 30, false, perEps(func(n *Net, eps float64) string { return treeLine(BKRUS(n, eps)) })},
		{"BKRUSLU", 30, false, perEps(func(n *Net, eps float64) string { return treeLine(BKRUSLU(n, 0.3, eps)) })},
		{"BPRIM", 30, false, perEps(func(n *Net, eps float64) string { return treeLine(BPRIM(n, eps)) })},
		{"BRBC", 30, false, perEps(func(n *Net, eps float64) string { return treeLine(BRBC(n, eps)) })},
		{"AHHK", 30, false, func(n *Net) []string {
			var out []string
			for _, c := range []float64{0, 0.5, 1} {
				out = append(out, treeLine(AHHK(n, c)))
			}
			return out
		}},
		{"BKH2", 9, false, perEps(func(n *Net, eps float64) string { return treeLine(BKH2(n, eps)) })},
		{"BKEX", 9, false, perEps(func(n *Net, eps float64) string { return treeLine(BKEX(n, eps, 2)) })},
		{"BMSTG", 9, false, func(n *Net) []string {
			out := perEps(func(n *Net, eps float64) string { return treeLine(BMSTG(n, eps, GabowOptions{})) })(n)
			return append(out, treeLine(BMSTG(n, 0, GabowOptions{MaxTrees: 3})))
		}},
		{"BMSTGLU", 9, false, perEps(func(n *Net, eps float64) string {
			return treeLine(BMSTGLU(n, 0.3, eps, GabowOptions{MaxTrees: 2000}))
		})},
		{"BKRUSElmore", 30, false, func(n *Net) []string {
			out := perEps(func(n *Net, eps float64) string { return treeLine(BKRUSElmore(n, eps, DefaultRCModel())) })(n)
			return append(out, perEps(func(n *Net, eps float64) string { return treeLine(BKRUSElmore(n, eps, strongRC)) })(n)...)
		}},
		{"BKH2Elmore", 9, false, perEps(func(n *Net, eps float64) string { return treeLine(BKH2Elmore(n, eps, strongRC)) })},
		{"BKST", 30, true, perEps(func(n *Net, eps float64) string { return steinerLine(BKST(n, eps)) })},
		{"BKSTLU", 30, true, perEps(func(n *Net, eps float64) string { return steinerLine(BKSTLU(n, 0.3, eps)) })},
		{"BKSTPlanar", 30, true, perEps(func(n *Net, eps float64) string { return steinerLine(BKSTPlanar(n, eps)) })},
	}
}

// ledgerNetlist is the router rows' fixed design: twelve seeded L1 nets
// of 2 to 35 sinks.
func ledgerNetlist() *router.Netlist {
	rng := rand.New(rand.NewSource(29))
	nl := &router.Netlist{}
	for i := 0; i < 12; i++ {
		pts := make([]Point, 2+3*i)
		for j := range pts {
			pts[j] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		nl.Add(fmt.Sprintf("n%d", i), inst.MustNew(Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, pts, Manhattan))
	}
	return nl
}

// TestAPILedger pins every tree the public constructors build, and
// every design the router's four policies route, to one SHA-256 per
// (constructor, net) or policy, error strings included. The public API
// and the router must build exactly what the registered constructors
// do. go test . -run TestAPILedger -update rewrites the ledger.
func TestAPILedger(t *testing.T) {
	var lines []string
	for _, net := range apiNets() {
		for _, row := range apiRows() {
			if net.net.NumSinks() > row.maxSinks || row.l1only && net.net.Metric() != Manhattan {
				continue
			}
			lines = append(lines, row.name+"/"+net.name+" "+digest(row.build(net.net)))
		}
	}
	nl := ledgerNetlist()
	for _, p := range []router.Policy{router.BKRUSPolicy(0.2), router.MSTPolicy(), router.SPTPolicy(), router.AHHKPolicy(0.5)} {
		res, err := router.Route(context.Background(), nl, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var nets []string
		for _, r := range res.Nets {
			nets = append(nets, r.Name+" "+fmt.Sprint(r.Tree.Edges))
		}
		lines = append(lines, "router/"+p.Name+" "+digest(nets))
	}
	if *updateLedger {
		if err := os.WriteFile(apiLedgerPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(apiLedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		k, v, _ := strings.Cut(l, " ")
		if want[k] != v {
			t.Errorf("%s: digest %s, ledger %q", k, v, want[k])
		}
		delete(want, k)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Errorf("%s: in the ledger but no longer built", k)
	}
}

// digest is the SHA-256 of lines, one per line.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
