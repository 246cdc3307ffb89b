// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON record, so benchmark results can be committed
// (BENCH_PR9.json, the baseline of make bench-gate) and diffed across
// changes instead of living in commit messages.
//
// It reads benchmark output from stdin (or a file argument), parses
// every "BenchmarkX  N  val unit  val unit ..." result line plus the
// goos/goarch/cpu header lines, and writes a JSON document of the form
//
//	{
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",
//	  "nproc": 2, "gomaxprocs": 2,
//	  "benchmarks": [
//	    {"name": "...", "package": "repro/internal/core",
//	     "iterations": 33, "ns_per_op": 35096999,
//	     "bytes_per_op": 5237144, "allocs_per_op": 5005,
//	     "extra": {"edges/op": 61385}}
//	  ]
//	}
//
// nproc is the core count of the host benchjson runs on (the host that
// ran the benchmarks it is piped from), and gomaxprocs the GOMAXPROCS
// the benchmark names carry as their "-N" suffix (1 when they carry
// none, as go test writes them at GOMAXPROCS=1; omitted when the rows
// disagree, as under -cpu 1,2,4).
//
// Non-benchmark lines (PASS, ok, test logs) are ignored, so the whole
// `go test -bench` transcript of several packages can be piped through
// in one shot.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -diff old.json new.json [-fail-over 20] [-require A,B]
//
// The -diff mode compares two committed reports benchmark by benchmark
// (keyed by package + name, the "-N" GOMAXPROCS suffix ignored) and
// prints a host line with both sides' nproc and gomaxprocs ("?" where a
// report did not record one), then per-benchmark ns/op deltas,
// plus bytes/op deltas where both reports recorded allocations. With
// -fail-over PCT it exits 1 when any benchmark's time or bytes
// regressed by more than PCT percent; without it the diff is
// informational only. With -require, the listed benchmark names must
// be present in the new report — the GOMAXPROCS "-N" suffix is
// ignored, and a name covers its sub-benchmarks ("BenchmarkX" matches
// "BenchmarkX/n=1000-4") — so a CI gate fails loudly when a hot-path
// row silently drops out of the bench run instead of diffing nothing.
//
// Exit status: 0 on success, 1 when the input contains no benchmark
// lines, the output cannot be written, or -fail-over tripped, 2 on
// usage errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NProc      int         `json:"nproc,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	diff := flag.Bool("diff", false, "compare two reports: benchjson -diff old.json new.json")
	failOver := flag.Float64("fail-over", 0, "with -diff: exit 1 when any ns/op or bytes/op regression exceeds this percent (0 = never fail)")
	require := flag.String("require", "", "with -diff: comma-separated benchmark names that must appear in the new report (-N suffix ignored; a name covers its sub-benchmarks); exit 1 listing any missing")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchjson [-o out.json] [bench-output.txt]")
		fmt.Fprintln(os.Stderr, "       benchjson -diff [-fail-over PCT] [-require A,B] old.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		new_, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		lines, regressed := diffReports(old, new_, *failOver)
		fmt.Println(hostLine(old, new_))
		for _, l := range lines {
			fmt.Println(l)
		}
		fail := false
		if missing := missingRequired(new_, splitRequire(*require)); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: required benchmark(s) missing from %s: %s\n", flag.Arg(1), strings.Join(missing, ", "))
			fail = true
		}
		if *failOver > 0 && regressed > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.1f%%\n", regressed, *failOver)
			fail = true
		}
		if fail {
			os.Exit(1)
		}
		return
	}

	var in io.Reader
	switch flag.NArg() {
	case 0:
		in = os.Stdin
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	default:
		flag.Usage()
		os.Exit(2)
	}

	report, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}
	stampHost(report, runtime.NumCPU())
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d benchmarks\n", *out, len(report.Benchmarks))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// readReport loads one committed benchjson document.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

// benchKey identifies a benchmark across reports: its package and its
// name without the GOMAXPROCS "-N" suffix, so a report recorded on a
// multi-core host pairs with one recorded at GOMAXPROCS=1 (which go test
// writes without a suffix).
func benchKey(b Benchmark) string { return b.Package + " " + stripProcs(b.Name) }

// splitRequire parses the -require flag value into clean names.
func splitRequire(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// stripProcs removes the "-N" GOMAXPROCS suffix go test appends to
// benchmark names, so requirements written without it match reports
// recorded on any machine.
func stripProcs(name string) string {
	base, _ := splitProcs(name)
	return base
}

// splitProcs splits a benchmark name into its base and the GOMAXPROCS
// of its "-N" suffix, 1 when it has none.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// stampHost records the report's host header: nproc, the host's core
// count, and GOMAXPROCS, the -N suffix every benchmark row carries (0
// when the rows disagree).
func stampHost(rep *Report, nproc int) {
	rep.NProc = nproc
	rep.GOMAXPROCS = 0
	for i, b := range rep.Benchmarks {
		_, procs := splitProcs(b.Name)
		if i > 0 && procs != rep.GOMAXPROCS {
			rep.GOMAXPROCS = 0
			return
		}
		rep.GOMAXPROCS = procs
	}
}

// hostLine renders both reports' host headers for -diff, "?" standing
// for a value a report did not record.
func hostLine(old, new_ *Report) string {
	v := func(n int) string {
		if n <= 0 {
			return "?"
		}
		return strconv.Itoa(n)
	}
	return fmt.Sprintf("host: nproc %s -> %s, GOMAXPROCS %s -> %s",
		v(old.NProc), v(new_.NProc), v(old.GOMAXPROCS), v(new_.GOMAXPROCS))
}

// missingRequired returns the required names, in input order, that no
// benchmark of the report satisfies. A requirement is satisfied by a
// benchmark whose -N-stripped name equals it, or starts with it plus
// "/" (a parent name covers all its sub-benchmarks).
func missingRequired(rep *Report, required []string) []string {
	var missing []string
	for _, want := range required {
		found := false
		for _, b := range rep.Benchmarks {
			name := stripProcs(b.Name)
			if name == want || strings.HasPrefix(name, want+"/") {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	return missing
}

// diffReports compares old and new per benchmark — ns/op always,
// bytes/op when both reports recorded it — in new-report order, then
// lists benchmarks only one side has. It returns the rendered lines
// plus the count of regressions above failOver percent on either axis
// (0 when failOver <= 0: purely informational). Gating bytes/op next
// to time is what keeps the sub-quadratic memory contract honest: an
// O(n²) allocation sneaking back into a sparse path shows up as a
// bytes regression long before it dominates wall time.
func diffReports(old, new_ *Report, failOver float64) (lines []string, regressed int) {
	prev := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		prev[benchKey(b)] = b
	}
	seen := map[string]bool{}
	for _, b := range new_.Benchmarks {
		key := benchKey(b)
		seen[key] = true
		o, ok := prev[key]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-60s %14s %14.0f  (new)", b.Name, "-", b.NsPerOp))
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (b.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		bad := failOver > 0 && delta > failOver
		bytesCol := ""
		if o.BytesPerOp > 0 && b.BytesPerOp > 0 {
			bd := (b.BytesPerOp - o.BytesPerOp) / o.BytesPerOp * 100
			bytesCol = fmt.Sprintf("  B/op %+7.2f%%", bd)
			if failOver > 0 && bd > failOver {
				bad = true
			}
		}
		mark := ""
		if bad {
			mark = "  REGRESSION"
			regressed++
		}
		lines = append(lines, fmt.Sprintf("%-60s %14.0f %14.0f  %+7.2f%%%s%s",
			b.Name, o.NsPerOp, b.NsPerOp, delta, bytesCol, mark))
	}
	for _, b := range old.Benchmarks {
		if !seen[benchKey(b)] {
			lines = append(lines, fmt.Sprintf("%-60s %14.0f %14s  (removed)", b.Name, b.NsPerOp, "-"))
		}
	}
	return lines, regressed
}

// parse consumes a `go test -bench` transcript, possibly spanning
// several packages.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResultLine(line)
			if !ok {
				continue // a benchmark's own log line, not a result
			}
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseResultLine parses one "BenchmarkName-P  N  v unit  v unit ..."
// line; ok=false when the line is not a well-formed result.
func parseResultLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = v
		}
	}
	return b, seen
}
