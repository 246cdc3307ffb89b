package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/inst"
)

// The tiny configurations keep every workload's full path — set-up,
// timed phase, checks, printing — to a few seconds.
var (
	tinyRoute  = closedCfg{minSinks: 4, maxSinks: 60, pool: 30, tailQ: 0.5}
	tinySparse = closedCfg{minSinks: 2100, maxSinks: 2100, pool: 20, tailQ: 0.5}
	// The traced serve run reports a p99 of generator lateness over at
	// least one pass of the pool, so the pool holds 1000 requests.
	tinyServe = serveCfg{pool: 1000, minSinks: 4, maxSinks: 40, bkstMax: 8,
		bkstShare: 0.2, sweepShare: 0.2, repeatShare: 0.2, recent: 4, tailQ: 0.5}
)

var (
	daemonOnce sync.Once
	daemonBin  string
	daemonErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonBin != "" && daemonErr == nil {
		os.RemoveAll(filepath.Dir(daemonBin))
	}
	os.Exit(code)
}

// buildDaemon compiles bmstreed once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	daemonOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test-")
		if err != nil {
			daemonErr = err
			return
		}
		daemonBin = filepath.Join(dir, "bmstreed")
		out, err := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/bmstreed").CombinedOutput()
		if err != nil {
			daemonErr = err
			daemonBin = string(out)
		}
	})
	if daemonErr != nil {
		t.Fatalf("build bmstreed: %v\n%s", daemonErr, daemonBin)
	}
	return daemonBin
}

// result is the final JSON line of a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs measure on one workload and parses its last output line.
func runTiny(t *testing.T, o options) (result, string) {
	t.Helper()
	o.outDir = t.TempDir()
	f, err := os.Create(filepath.Join(o.outDir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := measure(o, f); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, b)
	}
	return res, string(b)
}

func TestTinyWorkloads(t *testing.T) {
	routeMix, sparse1e4, serveClosed = tinyRoute, tinySparse, tinyServe
	bin := buildDaemon(t)
	for _, name := range []string{"route_mix", "sparse_1e4", "serve_closed"} {
		for _, trace := range []bool{false, true} {
			res, out := runTiny(t, options{workload: name, seed: 7, seconds: 0.4, trace: trace, daemon: bin})
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d of %d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%t: metric %s missing or not in %s", name, trace, m.name, m.unit)
				}
			}
			if !strings.Contains(out, "# host nproc=") {
				t.Errorf("%s: no host header", name)
			}
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	routeMix = tinyRoute
	digest := func() string {
		_, out := runTiny(t, options{workload: "route_mix", seed: 3, seconds: 0.1})
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "# digest") {
				return l
			}
		}
		t.Fatalf("no digest line:\n%s", out)
		return ""
	}
	if a, b := digest(), digest(); a != b {
		t.Errorf("one seed, two digests:\n%s\n%s", a, b)
	}
}

func TestUnknownAlgorithmCountsAsFailure(t *testing.T) {
	cfg := tinyServe
	w, err := newServeLoop(cfg, 1, buildDaemon(t), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	good := w.reqs[0]
	bad := good
	bad.body = []byte(strings.Replace(string(good.body), `"algo":"`+good.algo+`"`, `"algo":"nope"`, 1))
	ph, err := w.phase([]serveReq{good, bad}, func(i int) bool { return i < 2 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.nets != 2 || ph.fail != 1 || !strings.Contains(ph.errs[0], "status 400") {
		t.Errorf("nets=%d fail=%d errs=%q, want the unknown algorithm counted as one failure", ph.nets, ph.fail, ph.errs)
	}
}

func TestRemovedEdgeCountsAsFailure(t *testing.T) {
	w, err := newClosedLoop(tinyRoute, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := w.nets[0]
	in := inst.MustNew(n.src, n.sinks, geom.Manhattan)
	res, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: n.eps})
	if err != nil {
		t.Fatal(err)
	}
	var ph closedPhase
	ph.dig = newDigest()
	if err := w.verify(0, true, res, n, &ph); err != nil {
		t.Fatalf("intact tree rejected: %v", err)
	}
	res.Tree.Edges = res.Tree.Edges[1:]
	if err := w.verify(0, true, res, n, &ph); err == nil {
		t.Error("tree with one edge removed passed the check")
	}
}

func TestCheckSpanning(t *testing.T) {
	pts := []pt{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	chain := []edge{{0, 1, 10}, {1, 2, 10}, {2, 3, 10}} // sink 3 at path 30, R = 20
	if _, err := checkSpanning(pts, chain, 0.5); err != nil {
		t.Errorf("feasible chain rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		edges []edge
		eps   float64
	}{
		"path over bound": {chain, 0.4},
		"edge removed":    {chain[:2], 1},
		"cycle":           {[]edge{{0, 1, 10}, {1, 2, 10}, {2, 1, 10}}, 1},
		"wrong weight":    {[]edge{{0, 1, 10}, {1, 2, 10}, {2, 3, 11}}, 1},
		"out of range":    {[]edge{{0, 1, 10}, {1, 2, 10}, {2, 4, 10}}, 1},
	} {
		if _, err := checkSpanning(pts, tc.edges, tc.eps); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckSteiner(t *testing.T) {
	pts := []pt{{0, 0}, {10, 5}, {10, -5}}
	// A Steiner point at (10,0) joins both sinks; paths are 15, R = 15.
	wires := []wire{{pt{0, 0}, pt{10, 0}, 10}, {pt{10, 0}, pt{10, 5}, 5}, {pt{10, 0}, pt{10, -5}, 5}}
	cost, err := checkSteiner(pts, wires, 0)
	if err != nil || cost != 20 {
		t.Errorf("valid Steiner tree: cost %v, %v", cost, err)
	}
	// A layered jumper is a direct wire of L1 length.
	jumper := []wire{{pt{0, 0}, pt{10, 5}, 15}, {pt{0, 0}, pt{10, -5}, 15}}
	if _, err := checkSteiner(pts, jumper, 0); err != nil {
		t.Errorf("jumper tree rejected: %v", err)
	}
	for name, ws := range map[string][]wire{
		"wire removed": wires[:2],
		"wrong length": {wires[0], wires[1], {pt{10, 0}, pt{10, -5}, 6}},
		"cycle":        {wires[0], wires[1], {pt{10, 5}, pt{10, 0}, 5}},
	} {
		if _, err := checkSteiner(pts, ws, 0); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
	if _, err := checkSteiner(pts, []wire{{pt{0, 0}, pt{10, 0}, 10}, {pt{10, 0}, pt{10, 5}, 5}, {pt{0, 0}, pt{10, -5}, 15}}, 0); err != nil {
		t.Errorf("mixed grid and jumper wires rejected: %v", err)
	}
	if _, err := checkSteiner(pts, []wire{{pt{0, 0}, pt{0, 20}, 20}, {pt{0, 20}, pt{10, 5}, 25}, {pt{0, 0}, pt{10, -5}, 15}}, 1); err == nil {
		t.Error("path of 45 within (1+1)·15 = 30 passed")
	}
}

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {900, 0.99, false}, {109, 0.99, false},
		{40, 0.75, true}, {38, 0.75, false}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if _, ok := percentile(samples(tc.n), tc.q); ok != tc.ok {
			t.Errorf("p%g of %d samples: reportable=%t, want %t", tc.q*100, tc.n, ok, tc.ok)
		}
	}
	// Ties at the percentile do not count as lying beyond it.
	flat := make([]float64, 1000)
	if _, ok := percentile(flat, 0.99); ok {
		t.Error("p99 of 1000 equal samples has none beyond it, yet was reportable")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, code %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloadWhy[w.Name]; !ok {
			t.Errorf("workload %s is not in the code", w.Name)
		}
	}
}
