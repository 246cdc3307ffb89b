// Command perfbench is the repository's benchmark. It runs one workload
// per process from a seed, times only calls into the program's public
// entry points (bench.Random, inst.New, Instance.DistMatrix/Index/
// Release, engine.Build, and POST /v1/build plus GET /metrics on a
// bmstreed child process), checks every tree it gets back, and prints
// its metrics by name and unit. The last line of standard output is one
// JSON object; the lines before it are a host header, every metric with
// its sample count, and a digest over the returned trees.
//
//	perfbench --workload route_mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run. README.md lists the workloads and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procStart approximates process start: package initialisation runs
// right after the runtime starts.
var procStart = time.Now()

// Workload configurations.
var (
	routeMix    = closedCfg{minSinks: 4, maxSinks: 1000, pool: 1000, tailQ: 0.99}
	sparse1e4   = closedCfg{minSinks: 10000, maxSinks: 10000, pool: 40, tailQ: 0.75}
	serveClosed = serveCfg{pool: 2000, minSinks: 4, maxSinks: 300, bkstMax: 24,
		bkstShare: 0.1, sweepShare: 0.1, repeatShare: 0.2, recent: 8, tailQ: 0.99}
)

// setupReps is how many times a run sets up its workload; setup_s is
// the median, and only the last set-up workload is measured.
const setupReps = 5

// metricDef is one metric name with its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"nets_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
	{"cpu_s_per_net", "s"}, {"peak_rss_mb", "MB"}, {"cost_ratio", "ratio"},
}

// perLayer are the metrics of a traced run. A workload whose path does
// not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"net.ms", "ms"}, {"net.self_ms", "ms"}, {"inst.new_ms", "ms"},
	{"geom.matrix_ms", "ms"}, {"geom.matrix_mb", "MB"}, {"geom.index_ms", "ms"},
	{"geom.grid_probes", "count"}, {"geom.octant_candidates", "count"},
	{"core.build_ms", "ms"}, {"core.edges_examined", "count"}, {"core.cycle_rejections", "count"},
	{"core.bound_rejections", "count"}, {"core.merges", "count"}, {"core.witness_scans", "count"},
	{"core.stream_batches", "count"}, {"core.stream_fallback_sorts", "count"},
	{"core.accept_share", "ratio"}, {"core.scans_per_merge", "ratio"}, {"core.refresh_workers", "count"},
	{"check.ms", "ms"}, {"engine.sweep_runs", "count"},
	{"steiner.candidates_examined", "count"}, {"steiner.embeds", "count"},
	{"steiner.embed_collisions", "count"}, {"steiner.steiner_points_added", "count"},
	{"request.ms", "ms"}, {"request.self_ms", "ms"},
	{"serve.request_ms", "ms"}, {"serve.outside_ms", "ms"}, {"serve.build_bkrus_ms", "ms"},
	{"serve.build_bkst_ms", "ms"}, {"serve.cache_hit_share", "ratio"}, {"serve.shed", "count"},
	{"serve.timeouts", "count"}, {"serve.cache_bytes", "bytes"},
	{"runtime.alloc_mb_per_net", "MB"}, {"runtime.gc_cycles_per_net", "count"},
	{"loadgen.send_wait_ms", "ms"}, {"loadgen.late_p99_ms", "ms"}, {"trace.overhead_pct", "%"},
}

// value is one reported metric with the number of samples behind it.
type value struct {
	v    float64
	n    int
	unit string
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]value
	notes             []string
	digest            string
	digestN           int
}

func (r *report) count(attempted, failed int, errs []string) {
	r.attempted, r.failed, r.errs = attempted, failed, errs
}

func (r *report) set(name, unit string, v float64, n int) {
	if r.metrics == nil {
		r.metrics = map[string]value{}
	}
	r.metrics[name] = value{v, n, unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is a set-up workload ready to measure.
type workload interface {
	run(seconds float64, tr *tracer) (*report, error)
	close()
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // bmstreed binary
	outDir   string // scratch directory for the daemon address file and spans
}

// workloadWhy is one line on why each workload exists.
var workloadWhy = map[string]string{
	"route_mix":    "dense global-routing traffic: fresh nets of 4-1000 sinks, one closed-loop caller",
	"sparse_1e4":   "sparse regime: fresh n=10^4 nets, one closed-loop caller",
	"serve_closed": "bmstreed under one closed-loop client: bkrus, bkst, eps sweeps and cached repeats",
}

// setUp builds the named workload once.
func setUp(o options) (workload, error) {
	switch o.workload {
	case "route_mix":
		return newClosedLoop(routeMix, o.seed)
	case "sparse_1e4":
		return newClosedLoop(sparse1e4, o.seed)
	case "serve_closed":
		return newServeLoop(serveClosed, o.seed, o.daemon, o.outDir)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "route_mix, sparse_1e4 or serve_closed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/bin/bmstreed", "bmstreed binary for serve_closed")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for run files (daemon address, spans)")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloadWhy[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload route_mix|sparse_1e4|serve_closed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := measure(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// measure sets up the workload setupReps times, measures the last
// set-up, writes the report to w and returns it.
func measure(o options, w io.Writer) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.outDir = dir

	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(w, "# run workload=%s seed=%d seconds=%g trace=%t (%s)\n", o.workload, o.seed, o.seconds, o.trace, workloadWhy[o.workload])

	var setups []float64
	var wl workload
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = procStart
		}
		if wl, err = setUp(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			wl.close()
		}
	}
	defer wl.close()

	var tr *tracer
	if o.trace {
		tr = &tracer{t0: time.Now()}
	}
	rep, err := wl.run(o.seconds, tr)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		rep.set("setup_s", "s", median(setups), len(setups))
	} else if err := writeSpans(filepath.Join(filepath.Dir(o.outDir), "spans"), o, tr); err != nil {
		return nil, err
	}
	return rep, rep.print(w, o)
}

// writeSpans saves the traced run's spans as JSON for later inspection.
func writeSpans(dir string, o options, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

// print writes every metric with its sample count, the digest, the
// error rate, and the final JSON line.
func (r *report) print(w io.Writer, o options) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case ok && m.unit != d.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", d.name, m.unit, d.unit)
		case !ok && !o.trace:
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case !ok:
			m = value{0, 0, d.unit}
			fmt.Fprintf(w, "# %-30s %14s %-6s (layer not on this workload's path)\n", d.name, "0", d.unit)
		default:
			fmt.Fprintf(w, "# %-30s %14.6g %-6s n=%d\n", d.name, m.v, m.unit, m.n)
		}
		out[d.name] = jsonMetric{m.v, d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	if r.digest != "" {
		fmt.Fprintf(w, "# digest %s over %d nets of seed %d\n", r.digest, r.digestN, o.seed)
	}
	fmt.Fprintf(w, "# error_rate %g (%d of %d failed)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	errs := r.errs
	if len(errs) > 5 {
		errs = errs[:5]
	}
	for _, e := range errs {
		fmt.Fprintf(w, "# failure: %s\n", e)
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
