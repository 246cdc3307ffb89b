package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBKRUSStream/n=500-4         	      33	  35096999 ns/op	     61385 edges/op	 5237144 B/op	    5005 allocs/op
BenchmarkBKRUSEager/n=500-4          	      26	  42248791 ns/op	     61385 edges/op	 5195272 B/op	    3697 allocs/op
PASS
ok  	repro/internal/core	3.456s
goos: linux
goarch: amd64
pkg: repro/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBKRUSSweepPooled-4          	       5	 210000000 ns/op	        16.00 cells/op	 1000 B/op	      10 allocs/op
PASS
ok  	repro/internal/engine	1.234s
`

func TestParseTranscript(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header = %q/%q/%q", rep.Goos, rep.Goarch, rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkBKRUSStream/n=500-4" || b.Package != "repro/internal/core" {
		t.Errorf("first bench identity = %q pkg %q", b.Name, b.Package)
	}
	if b.Iterations != 33 || b.NsPerOp != 35096999 || b.BytesPerOp != 5237144 || b.AllocsPerOp != 5005 {
		t.Errorf("first bench values = %+v", b)
	}
	if b.Extra["edges/op"] != 61385 {
		t.Errorf("edges/op = %v", b.Extra["edges/op"])
	}
	last := rep.Benchmarks[2]
	if last.Package != "repro/internal/engine" || last.Extra["cells/op"] != 16 {
		t.Errorf("last bench = %+v", last)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := `BenchmarkFoo
Benchmark output that is not a result
BenchmarkBar-1   10   100 ns/op
some log line
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkBar-1" {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
}

func TestParseResultLineRejectsMalformed(t *testing.T) {
	bad := []string{
		"BenchmarkX",
		"BenchmarkX abc 100 ns/op",
		"BenchmarkX 10 abc ns/op",
		"BenchmarkX 10 100 B/op", // no ns/op anywhere
		"BenchmarkX 0 100 ns/op",
	}
	for _, line := range bad {
		if _, ok := parseResultLine(line); ok {
			t.Errorf("accepted malformed line %q", line)
		}
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkA-4":  "BenchmarkA",
		"BenchmarkA-16": "BenchmarkA",
		"BenchmarkA":    "BenchmarkA",
		"BenchmarkBKRUSRefresh/n=1000/workers=4-4": "BenchmarkBKRUSRefresh/n=1000/workers=4",
		"BenchmarkX/mode=fast":                     "BenchmarkX/mode=fast",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitRequire(t *testing.T) {
	if got := splitRequire(""); got != nil {
		t.Errorf("empty flag parsed to %v", got)
	}
	got := splitRequire(" BenchmarkA , ,BenchmarkB/n=5,")
	if len(got) != 2 || got[0] != "BenchmarkA" || got[1] != "BenchmarkB/n=5" {
		t.Errorf("splitRequire = %v", got)
	}
}

func TestMissingRequired(t *testing.T) {
	rep := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkBKRUSRefresh/n=1000/workers=1-4"},
		{Name: "BenchmarkBKRUSRefresh/n=1000/workers=4-4"},
		{Name: "BenchmarkBKRUSSparse/n=10000-4"},
	}}
	// Exact sub-benchmark names, with and without the -N suffix in the
	// requirement, plus a parent name covering its children.
	for _, ok := range [][]string{
		{"BenchmarkBKRUSRefresh/n=1000/workers=1"},
		{"BenchmarkBKRUSRefresh"},
		{"BenchmarkBKRUSRefresh/n=1000", "BenchmarkBKRUSSparse"},
	} {
		if m := missingRequired(rep, ok); m != nil {
			t.Errorf("require %v reported missing %v", ok, m)
		}
	}
	// A parent name must not match by bare string prefix: the boundary
	// is a "/" separator.
	m := missingRequired(rep, []string{"BenchmarkBKRUSRef", "BenchmarkBKRUSSparse/n=500", "BenchmarkGone"})
	want := []string{"BenchmarkBKRUSRef", "BenchmarkBKRUSSparse/n=500", "BenchmarkGone"}
	if len(m) != len(want) {
		t.Fatalf("missing = %v, want %v", m, want)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("missing[%d] = %q, want %q", i, m[i], want[i])
		}
	}
}

func TestDiffReports(t *testing.T) {
	old := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", Package: "p", NsPerOp: 100},
		{Name: "BenchmarkB-4", Package: "p", NsPerOp: 200},
		{Name: "BenchmarkGone-4", Package: "p", NsPerOp: 50},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", Package: "p", NsPerOp: 150}, // +50%
		{Name: "BenchmarkB-4", Package: "p", NsPerOp: 190}, // -5%
		{Name: "BenchmarkNew-4", Package: "p", NsPerOp: 10},
	}}

	lines, regressed := diffReports(old, cur, 20)
	if regressed != 1 {
		t.Errorf("regressed = %d, want 1 (only the +50%% one)", regressed)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "REGRESSION") || !strings.Contains(lines[0], "+50.00%") {
		t.Errorf("line 0 should mark the regression: %q", lines[0])
	}
	if strings.Contains(lines[1], "REGRESSION") || !strings.Contains(lines[1], "-5.00%") {
		t.Errorf("line 1 should be a clean improvement: %q", lines[1])
	}
	if !strings.Contains(lines[2], "(new)") {
		t.Errorf("line 2 should flag the new benchmark: %q", lines[2])
	}
	if !strings.Contains(lines[3], "(removed)") {
		t.Errorf("line 3 should flag the removed benchmark: %q", lines[3])
	}

	// Informational mode never counts regressions.
	if _, n := diffReports(old, cur, 0); n != 0 {
		t.Errorf("failOver=0 counted %d regressions, want 0", n)
	}

	// Bytes/op gates alongside time: a flat-time benchmark whose
	// allocation doubled is a regression too.
	oldB := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkM-4", Package: "p", NsPerOp: 100, BytesPerOp: 1000}}}
	curB := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkM-4", Package: "p", NsPerOp: 100, BytesPerOp: 2000}}}
	linesB, n := diffReports(oldB, curB, 20)
	if n != 1 || !strings.Contains(linesB[0], "REGRESSION") || !strings.Contains(linesB[0], "B/op +100.00%") {
		t.Errorf("bytes regression not gated: n=%d %q", n, linesB[0])
	}
	if _, n := diffReports(oldB, curB, 0); n != 0 {
		t.Errorf("informational mode counted a bytes regression")
	}

	// Same package+name keying: a matching name in another package is
	// a different benchmark.
	other := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkA-4", Package: "q", NsPerOp: 1}}}
	lines, _ = diffReports(old, other, 0)
	if !strings.Contains(lines[0], "(new)") {
		t.Errorf("cross-package match should not pair: %q", lines[0])
	}
}

// TestDiffPairsAcrossProcsSuffix diffs a report recorded on a
// multi-core host ("-2" suffixes) against a baseline recorded without
// suffixes, as BENCH_PR9.json was. The rows must pair — and so be gated
// — rather than fall apart into (new) and (removed) lines.
func TestDiffPairsAcrossProcsSuffix(t *testing.T) {
	old := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkBKRUSRefresh/n=1000/workers=1", Package: "p", NsPerOp: 100, BytesPerOp: 1000},
		{Name: "BenchmarkBKRUSRefreshSparse/n=10000/workers=1", Package: "p", NsPerOp: 100},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkBKRUSRefresh/n=1000/workers=1-2", Package: "p", NsPerOp: 400, BytesPerOp: 1000}, // +300%
		{Name: "BenchmarkBKRUSRefreshSparse/n=10000/workers=1-2", Package: "p", NsPerOp: 90},
	}}
	lines, regressed := diffReports(old, cur, 200)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 paired rows:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if strings.Contains(l, "(new)") || strings.Contains(l, "(removed)") {
			t.Errorf("row did not pair across the -N suffix: %q", l)
		}
	}
	if regressed != 1 || !strings.Contains(lines[0], "REGRESSION") {
		t.Errorf("regressed = %d, line %q; want the +300%% row gated", regressed, lines[0])
	}
}

// TestStampHost pins the report's host header: nproc is the count it
// is given (main passes the host's), GOMAXPROCS the rows' common -N
// suffix, 1 for unsuffixed rows and 0 when the rows disagree.
func TestStampHost(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	stampHost(rep, 2)
	if rep.NProc != 2 || rep.GOMAXPROCS != 4 {
		t.Errorf("-4 rows on a 2-core host: nproc %d, GOMAXPROCS %d; want 2, 4", rep.NProc, rep.GOMAXPROCS)
	}
	for _, tc := range []struct {
		names []string
		want  int
	}{
		{[]string{"BenchmarkA", "BenchmarkB/n=10"}, 1},
		{[]string{"BenchmarkA-8", "BenchmarkB/n=10-8"}, 8},
		{[]string{"BenchmarkA-2", "BenchmarkA-4"}, 0},
		{[]string{"BenchmarkA-2", "BenchmarkB"}, 0},
	} {
		rep := &Report{}
		for _, n := range tc.names {
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: n})
		}
		stampHost(rep, 1)
		if rep.GOMAXPROCS != tc.want {
			t.Errorf("rows %v: GOMAXPROCS %d, want %d", tc.names, rep.GOMAXPROCS, tc.want)
		}
	}
}

// TestHostLine pins the -diff host line: both sides' nproc and
// GOMAXPROCS, "?" for a report recorded before the header existed.
func TestHostLine(t *testing.T) {
	old := &Report{}
	cur := &Report{NProc: 2, GOMAXPROCS: 2}
	if got, want := hostLine(old, cur), "host: nproc ? -> 2, GOMAXPROCS ? -> 2"; got != want {
		t.Errorf("hostLine = %q, want %q", got, want)
	}
	if got, want := hostLine(&Report{NProc: 4, GOMAXPROCS: 1}, cur), "host: nproc 4 -> 2, GOMAXPROCS 1 -> 2"; got != want {
		t.Errorf("hostLine = %q, want %q", got, want)
	}
}
