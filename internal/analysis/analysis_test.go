package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one testdata fixture directory as
// a single package under the given (fake) import path. The fake path
// lets each analyzer's AppliesTo see the fixture as a package it
// covers.
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	deps, err := listDeps("", []string{
		"fmt", "sort", "time", "math", "math/rand", "context", "sync", "runtime",
		"strings", "repro/internal/obs", "repro/internal/cancel",
	})
	if err != nil {
		t.Fatalf("building export lookup: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	pkg, info, err := typeCheck(fset, importPath, files, importer.ForCompiler(fset, "gc", exportLookup(deps)))
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
	}
}

// wantRe matches a trailing "// want:<analyzer>" expectation marker.
var wantRe = regexp.MustCompile(`// want:(\w+)$`)

// fixtureWants scans the fixture sources for expectation markers and
// returns the exact file:line -> analyzer expectations.
func fixtureWants(t *testing.T, dir string) map[string]string {
	t.Helper()
	wants := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(strings.TrimRight(sc.Text(), " \t")); m != nil {
				wants[fmt.Sprintf("%s:%d", path, line)] = m[1]
			}
		}
		f.Close()
	}
	return wants
}

// checkFixture runs one analyzer over its fixture directory and
// asserts the diagnostics match the want markers exactly, position by
// position.
func checkFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkg := loadFixture(t, dir, importPath)
	wants := fixtureWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want markers", dir)
	}
	got := map[string][]string{}
	for _, d := range Run(pkg, []*Analyzer{a}) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		got[key] = append(got[key], d.Analyzer+": "+d.Message)
	}
	for key, analyzer := range wants {
		ds := got[key]
		switch {
		case len(ds) == 0:
			t.Errorf("%s: want a %s diagnostic, got none", key, analyzer)
		case len(ds) != 1:
			t.Errorf("%s: want exactly one diagnostic, got %d: %v", key, len(ds), ds)
		case !strings.HasPrefix(ds[0], analyzer+": "):
			t.Errorf("%s: want a %s diagnostic, got %q", key, analyzer, ds[0])
		}
	}
	var extra []string
	for key, ds := range got {
		if _, ok := wants[key]; !ok {
			extra = append(extra, fmt.Sprintf("%s: %v", key, ds))
		}
	}
	sort.Strings(extra)
	for _, e := range extra {
		t.Errorf("unexpected diagnostic: %s", e)
	}
}

func TestFloatCmpFixture(t *testing.T) {
	checkFixture(t, FloatCmp, filepath.Join("testdata", "floatcmp"), "repro/internal/fixture")
}

func TestWallClockFixture(t *testing.T) {
	// The fake import path makes the fixture count as a deterministic
	// construction package.
	checkFixture(t, WallClock, filepath.Join("testdata", "wallclock"), "repro/internal/core")
}

func TestObsGateFixture(t *testing.T) {
	checkFixture(t, ObsGate, filepath.Join("testdata", "obsgate"), "repro/internal/fixture")
}

func TestParallelGateFixture(t *testing.T) {
	checkFixture(t, ParallelGate, filepath.Join("testdata", "parallelgate"), "repro/internal/geom")
}

func TestWaitPairFixture(t *testing.T) {
	checkFixture(t, WaitPair, filepath.Join("testdata", "waitpair"), "repro/internal/geom")
}

func TestSharedWriteFixture(t *testing.T) {
	checkFixture(t, SharedWrite, filepath.Join("testdata", "sharedwrite"), "repro/internal/graph")
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, ErrDrop, filepath.Join("testdata", "errdrop"), "repro/internal/fixture")
}

func TestDetFlowFixture(t *testing.T) {
	// The fake import path makes the fixture count as a deterministic
	// construction package.
	checkFixture(t, DetFlow, filepath.Join("testdata", "detflow"), "repro/internal/core")
}

func TestCtxFlowFixture(t *testing.T) {
	checkFixture(t, CtxFlow, filepath.Join("testdata", "ctxflow"), "repro/internal/core")
}

// TestMapOrderFixture covers detflow's local map-order check: unsorted
// accumulation under a map range, reported where it accumulates.
func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, DetFlow, filepath.Join("testdata", "detflow", "maporder"), "repro/internal/fixture")
}

// TestCtxPollFixture covers ctxflow's local loop check: an
// instance-sized loop in a cancellable scope that never polls. The fake
// import path makes the fixture count as a cancellable construction
// package.
func TestCtxPollFixture(t *testing.T) {
	checkFixture(t, CtxFlow, filepath.Join("testdata", "ctxflow", "poll"), "repro/internal/core")
}

func TestAllocLoopFixture(t *testing.T) {
	// The fake import path makes the fixture count as a hot package
	// with a zero per-iteration allocation budget.
	checkFixture(t, AllocLoop, filepath.Join("testdata", "allocloop"), "repro/internal/core")
}

func TestLockOrderFixture(t *testing.T) {
	// The fake import path makes the fixture count as the serving
	// layer, whose two mutex classes motivated the analyzer.
	checkFixture(t, LockOrder, filepath.Join("testdata", "lockorder"), "repro/internal/serve")
}

func TestIntWidthFixture(t *testing.T) {
	checkFixture(t, IntWidth, filepath.Join("testdata", "intwidth"), "repro/internal/core")
}

func TestNarrowRange(t *testing.T) {
	if lo, hi, ok := narrowRange(types.Typ[types.Int32]); !ok || lo != math.MinInt32 || hi != math.MaxInt32 {
		t.Errorf("narrowRange(int32) = %d, %d, %v", lo, hi, ok)
	}
	if lo, hi, ok := narrowRange(types.Typ[types.Uint16]); !ok || lo != 0 || hi != math.MaxUint16 {
		t.Errorf("narrowRange(uint16) = %d, %d, %v", lo, hi, ok)
	}
	if _, _, ok := narrowRange(types.Typ[types.Int64]); ok {
		t.Error("narrowRange(int64) claimed a narrow range")
	}
	if _, _, ok := narrowRange(types.Typ[types.Float64]); ok {
		t.Error("narrowRange(float64) claimed a narrow range")
	}
}

func TestChanLeakFixture(t *testing.T) {
	checkFixture(t, ChanLeak, filepath.Join("testdata", "chanleak"), "repro/internal/core")
}

// TestAppliesTo pins the per-analyzer package allowlists.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{FloatCmp, "repro/internal/geom", false}, // hosts the approved helpers
		{FloatCmp, "repro/internal/core", true},
		{FloatCmp, "repro", true},
		{WallClock, "repro/internal/core", true},
		{WallClock, "repro/internal/steiner", true},
		{WallClock, "repro/internal/engine", true}, // dispatch must stay deterministic
		{WallClock, "repro/internal/cancel", true},
		{WallClock, "repro/internal/router", false}, // times its own parallel runs
		{WallClock, "repro/internal/experiments", false},
		{WallClock, "repro/internal/serve", false}, // request timing is its job
		{ObsGate, "repro/internal/router", true},
		{ObsGate, "repro/internal/obs", false}, // the instruments themselves
		{ObsGate, "repro/cmd/bmstree", false},  // binaries run off the hot path
		{ParallelGate, "repro/internal/geom", true},
		{ParallelGate, "repro/internal/router", false}, // bounded pool, no serial twin
		{ParallelGate, "repro/internal/core", false},   // serial since DESIGN.md §14
		{WaitPair, "repro/internal/geom", true},
		{WaitPair, "repro/internal/router", true},
		{WaitPair, "repro/internal/obs", false},
		{WaitPair, "repro/internal/serve", false},
		// ctxflow covers every package with a cancellation contract:
		// the construction layers, the engine and the serving layer.
		{CtxFlow, "repro/internal/core", true},
		{CtxFlow, "repro/internal/engine", true},
		{CtxFlow, "repro/internal/serve", true},
		{CtxFlow, "repro/internal/geom", false}, // matrix fill takes no ctx by design
		{IntWidth, "repro/internal/graph", true},
		{IntWidth, "repro/internal/obs", false}, // counters are int64 end to end
		{AllocLoop, "repro/internal/core", true},
		{AllocLoop, "repro/internal/steiner", true},
		{AllocLoop, "repro/internal/engine", true},
		{AllocLoop, "repro/internal/serve", false}, // request path allocates per request by design
		{LockOrder, "repro/internal/serve", true},
		{LockOrder, "repro/internal/obs", true},
		{LockOrder, "repro/internal/mst", false}, // lock-free by construction
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	// The goroutine allowlists name exactly the internal packages that
	// spawn. A listed package whose non-test code has no go statement is
	// a stale entry; an unlisted one that has one escapes the analyzer,
	// unless it is named here as exempt.
	dirs, err := filepath.Glob(filepath.Join("..", "*"))
	if err != nil {
		t.Fatal(err)
	}
	spawners := map[string]bool{}
	for _, dir := range dirs {
		if spawns(t, dir) {
			spawners["repro/internal/"+filepath.Base(dir)] = true
		}
	}
	for _, g := range []struct {
		a      *Analyzer
		listed []string
		exempt string
	}{
		{ParallelGate, parallelGatePackages, "repro/internal/router"}, // bounded pool, no serial twin
		{WaitPair, waitPairPackages, ""},
	} {
		for _, path := range g.listed {
			if !spawners[path] {
				t.Errorf("%s lists %s, but its non-test code has no go statement", g.a.Name, path)
			}
		}
		for _, dir := range dirs {
			path := "repro/internal/" + filepath.Base(dir)
			if spawners[path] && path != g.exempt && !g.a.AppliesTo(path) {
				t.Errorf("%s has a go statement in non-test code, but %s does not cover it", path, g.a.Name)
			}
		}
	}
	// Every package owes determinism, error handling and goroutine
	// hygiene, so these carry no allowlist.
	for _, a := range []*Analyzer{DetFlow, ErrDrop, SharedWrite, ChanLeak} {
		if a.AppliesTo != nil {
			t.Errorf("%s must apply to every package", a.Name)
		}
	}
}

// spawns reports whether a non-test Go file in dir has a go statement.
func spawns(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			_, ok := n.(*ast.GoStmt)
			found = found || ok
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// TestSuppressionDiagnostics covers the directive edge cases: a
// malformed directive (no reason) never suppresses and is reported, an
// unused directive for an analyzer that ran is reported, and a
// directive naming no registered analyzer (here a retired one) is
// reported even though it could never be used.
func TestSuppressionDiagnostics(t *testing.T) {
	src := `package fixture

func cmp(a, b float64) bool {
	//lint:ignore floatcmp
	return a == b
}

//lint:ignore floatcmp stale suppression with nothing underneath
func clean(a, b int) bool {
	return a == b
}

//lint:ignore ctxpoll retired analyzer: folded into ctxflow
func retired(a, b int) bool {
	return a == b
}
`
	var lines []string
	for _, d := range Run(inlinePackage(t, "repro/internal/fixture", src), []*Analyzer{FloatCmp}) {
		lines = append(lines, fmt.Sprintf("%d %s", d.Pos.Line, d.Analyzer))
	}
	want := []string{
		"4 lint",     // malformed: no reason
		"5 floatcmp", // not suppressed by the malformed directive
		"8 lint",     // unused directive
		"13 lint",    // unknown analyzer
	}
	if strings.Join(lines, ", ") != strings.Join(want, ", ") {
		t.Errorf("diagnostics = %v, want %v", lines, want)
	}
}

// TestParallelGateCallerCheck covers the one-level caller check on the
// module call graph: an unexported spawning helper passes only when
// every call site in its package is gated, and a call site inside a
// function literal is judged against the literal's own body.
func TestParallelGateCallerCheck(t *testing.T) {
	src := `package fixture

func spawnGated(n int) {
	go func() { _ = n }()
}

func spawnMixed(n int) {
	go func() { _ = n }()
}

func spawnInLiteral(n int) {
	go func() { _ = n }()
}

func gated(workers int) {
	if workers > 1 {
		spawnGated(workers)
		spawnMixed(workers)
		return
	}
}

func ungated(workers int) {
	spawnMixed(workers)
}

func gatedInLiteral(workers int) {
	run := func() {
		if workers > 1 {
			spawnInLiteral(workers)
		}
	}
	run()
}
`
	var lines []string
	for _, d := range Run(inlinePackage(t, "repro/internal/geom", src), []*Analyzer{ParallelGate}) {
		lines = append(lines, fmt.Sprintf("%d %s", d.Pos.Line, d.Analyzer))
	}
	if want := "8 parallelgate"; strings.Join(lines, ", ") != want {
		t.Errorf("diagnostics = %v, want [%s]", lines, want)
	}
}

// inlinePackage parses and type-checks one import-free source file as
// a package under importPath.
func inlinePackage(t *testing.T, importPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "inline.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := typeCheck(fset, importPath, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: importPath, Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

// TestLoadRepo smoke-tests the go list + export data loader on this
// very package: the pattern names one target, but the whole module is
// loaded and summarised.
func TestLoadRepo(t *testing.T) {
	mod, err := LoadModule("", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Targets) != 1 || mod.Targets[0].ImportPath != "repro/internal/analysis" {
		t.Fatalf("LoadModule(.) targets = %v, want the analysis package itself", mod.Targets)
	}
	if len(mod.Targets[0].Files) == 0 || mod.Targets[0].Types == nil {
		t.Fatal("loaded package has no syntax or types")
	}
	paths := map[string]bool{}
	for _, p := range mod.Pkgs {
		paths[p.ImportPath] = true
	}
	for _, want := range []string{"repro", "repro/internal/core", "repro/tools/lint"} {
		if !paths[want] {
			t.Errorf("LoadModule(.) did not load %s; the module load must cover the whole module", want)
		}
	}
}
