package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutant is one seeded bug in a real file of the module and what kills
// it.
type mutant struct {
	file     string // module-relative path of the edited non-test file
	old, new string // the edit: old occurs exactly once in file
	kind     string // the bug's category
	// lint names the analyzers that report the mutant in the edited
	// package, sorted; empty when none does.
	lint []string
	// test holds the `go test` arguments of a run that fails on the
	// mutant (make mutants re-checks them); empty when no test does.
	test string
}

// mutants is the lint suite's evidence: each row is a bug seeded into
// the code it guards, with the analyzers and the test that kill it.
// Every row is killed by something. TestMutationTable checks the lint
// column in-process on every go test; make mutants checks the test
// column, each row on a copy of the module (mutation_kill_test.go).
//
// The narrowing rows are killed by intwidth alone: an id past 2³¹
// needs an instance of more than 2³¹ points, which no test can build,
// and that is why the analyzer stays. No analyzer claims the subscript
// rows — the tests kill all nine, six by an index panic on the first
// small instance they build. Of the nil rows, obsgate kills the three
// that drop an observation gate, and tests kill all but one of the
// nine.
var mutants = []mutant{
	// Subscripts and range bounds.
	{file: "internal/geom/index.go", kind: "subscript",
		old:  "for c := 0; c < cells; c++ {",
		new:  "for c := 0; c <= cells; c++ {",
		test: "-run ^TestIndexOctantNearestMatchesBruteForce$ ./internal/geom"},
	{file: "internal/geom/index.go", kind: "subscript",
		old:  "\ts.scan(k+1, int(s.start[c+1]))",
		new:  "\ts.scan(k, int(s.start[c+1]))",
		test: "-run ^TestIndexDegenerateLayouts$ ./internal/geom"},
	{file: "internal/geom/geom.go", kind: "subscript",
		old:  "\treturn dm.d[dm.base(j+s)+i-s]",
		new:  "\treturn dm.d[dm.base(j+s)+i-s+1]",
		test: "-run ^TestDistMatrix$ ./internal/geom"},
	{file: "internal/graph/stream.go", kind: "subscript",
		old:  "\tb := r.buckets(n * (n - 1) / 2)\n\toff := make([]int, b.last+2)",
		new:  "\tb := r.buckets(n * (n - 1) / 2)\n\toff := make([]int, b.last+1)",
		test: "-run ^TestEdgeStreamFromWeights$ ./internal/graph"},
	{file: "internal/graph/stream.go", kind: "subscript",
		old:  "\tfor k := 1; k < len(off); k++ {",
		new:  "\tfor k := 1; k <= len(off); k++ {",
		test: "-run ^TestEdgeStreamFilterMatchesSortEdges$ ./internal/graph"},
	{file: "internal/graph/heap.go", kind: "subscript",
		old:  "if j2 := j1 + 1; j2 < n &&",
		new:  "if j2 := j1 + 1; j2 <= n &&",
		test: "-run ^TestHeapMatchesContainerHeap$ ./internal/graph"},
	{file: "internal/core/forest.go", kind: "subscript",
		old:  "\t\tlast := len(st) - 1\n",
		new:  "\t\tlast := len(st)\n",
		test: "-run ^TestBKRUSInfiniteEpsIsMST$ ./internal/core"},
	{file: "internal/mst/mst.go", kind: "subscript",
		old:  "\tfor k := 1; k < n; k++ {",
		new:  "\tfor k := 1; k <= n; k++ {",
		test: "-run ^TestPrimMatchesKruskalCost$ ./internal/mst"},
	{file: "internal/steiner/bkst.go", kind: "subscript",
		old:  "\tfor i := len(path) - 2; i >= 1; i-- {",
		new:  "\tfor i := len(path) - 1; i >= 1; i-- {",
		test: "-run ^TestCollisionIdxPaired$ ./internal/steiner"},

	// Nil checks.
	{file: "internal/core/forest.go", kind: "nil",
		old:  "\tif f.ds != nil {\n\t\tb += f.ds.MemBytes()",
		new:  "\tif true {\n\t\tb += f.ds.MemBytes()",
		test: "-run ^TestFreshScratchMemBytes$ ./internal/core"},
	{file: "internal/core/bkrus.go", kind: "nil",
		old:  "\tif s.stream != nil {\n\t\tb += s.stream.MemBytes()",
		new:  "\tif true {\n\t\tb += s.stream.MemBytes()",
		test: "-run ^TestFreshScratchMemBytes$ ./internal/core"},
	{file: "internal/core/bkrus.go", kind: "nil",
		old:  "\ts := cfg.Scratch\n\tif s == nil {",
		new:  "\ts := cfg.Scratch\n\tif false {",
		test: "-run ^TestBKRUSInfiniteEpsIsMST$ ./internal/core"},
	{file: "internal/core/bkrus.go", kind: "nil",
		old:  "*graph.EdgeStream {\n\tif s == nil {",
		new:  "*graph.EdgeStream {\n\tif false {",
		test: "-run ^TestNilScratchEdgeStream$ ./internal/core"},
	{file: "internal/core/bkrus.go", kind: "nil", lint: []string{"obsgate"},
		old:  "\t\tif e.c != nil {\n\t\t\te.c.EdgesExamined.Inc()",
		new:  "\t\tif true {\n\t\t\te.c.EdgesExamined.Inc()",
		test: "-run ^TestBKRUSInfiniteEpsIsMST$ ./internal/core"},
	{file: "internal/steiner/bkst.go", kind: "nil", lint: []string{"obsgate"},
		old:  "\tif b.c != nil {\n\t\tb.c.FallbackConnects.Inc()",
		new:  "\tif true {\n\t\tb.c.FallbackConnects.Inc()",
		test: "-run ^TestBKSTBookkeepingMatchesTreeRecompute$ ./internal/steiner"},
	// A nil registry hands out working throwaway counters, so this one
	// costs only the allocations the gate saves; no test can see it.
	{file: "internal/engine/engine.go", kind: "nil", lint: []string{"obsgate"},
		old: "\t\tif p.Obs != nil {\n\t\t\tp.Obs.Scope(ScopeName).Counter(CtrSweepRuns).Inc()",
		new: "\t\tif true {\n\t\t\tp.Obs.Scope(ScopeName).Counter(CtrSweepRuns).Inc()"},
	{file: "internal/engine/engine.go", kind: "nil",
		old:  "\t\tif p.Scratch == nil {\n\t\t\tp.Scratch = &scratch",
		new:  "\t\tif false {\n\t\t\tp.Scratch = &scratch",
		test: "-run ^TestSweepSharesOneScratch$ ./internal/engine"},
	{file: "internal/obs/obs.go", kind: "nil",
		old:  "func (s *Scope) Counter(name string) *Counter {\n\tif s == nil {",
		new:  "func (s *Scope) Counter(name string) *Counter {\n\tif false {",
		test: "-run ^TestNilScopeAndRegistryAreSafe$ ./internal/obs"},

	// Narrowing conversions and the width pin.
	{file: "internal/core/forest.go", kind: "narrowing", lint: []string{"intwidth"},
		old: "f.live[x] = append(f.live[x], id32(x))",
		new: "f.live[x] = append(f.live[x], int32(x))"},
	{file: "internal/core/forest.go", kind: "narrowing", lint: []string{"intwidth"},
		old: "\th := id32(len(f.half))",
		new: "\th := int32(len(f.half))"},
	{file: "internal/core/forest.go", kind: "narrowing", lint: []string{"intwidth"},
		old: "to: id32(y), next: -1}",
		new: "to: int32(y), next: -1}"},
	{file: "internal/core/forest.go", kind: "narrowing", lint: []string{"intwidth"},
		old: "f.stack = append(f.stack[:0], id32(root))",
		new: "f.stack = append(f.stack[:0], int32(root))"},
	{file: "internal/geom/index.go", kind: "narrowing", lint: []string{"intwidth"},
		old: "\t\tids[next[c]] = id32(i)",
		new: "\t\tids[next[c]] = int32(i)"},
	{file: "internal/core/width.go", kind: "narrowing", lint: []string{"intwidth"},
		old:  "\tif x < 0 || x > math.MaxInt32 {",
		new:  "\tif x < 0 || x > math.MaxUint32 {",
		test: "-run ^TestVertexIDSpaceGuard$ ./internal/core"},
	{file: "internal/geom/index.go", kind: "narrowing", lint: []string{"intwidth"},
		old: "\tif i < 0 || i > math.MaxInt32 {",
		new: "\tif i > math.MaxInt32 {"},
	{file: "internal/core/width.go", kind: "width", lint: []string{"intwidth"},
		old: "const _ uint = 1 << 62",
		new: "const _ uint = 1 << 31"},

	// Cancellation. The BKST heap loop is short at test sizes, and the
	// fallback loop after it still polls, so only ctxflow sees the
	// dropped stride poll.
	{file: "internal/steiner/bkst.go", kind: "cancel", lint: []string{"ctxflow"},
		old: "\t\tif err := chk.Tick(); err != nil {\n\t\t\treturn err\n\t\t}\n\t\tb.step()",
		new: "\t\tb.step()"},
	{file: "internal/core/bkrus.go", kind: "cancel",
		old:  "\tchk := cancel.New(ctx, cancelStride)",
		new:  "\tchk := cancel.New(context.Background(), cancelStride)",
		test: "-run ^TestCancelStopsKruskalScans$ ./internal/engine"},

	// Goroutines and channels. sharedwrite accepts worker-indexed
	// slots and field writes through a captured pointer, so the
	// counter mix-up is the parallel-equals-serial test's to find.
	{file: "internal/geom/index.go", kind: "shared write",
		old:  "\t\t\tprobes[g], candidates[g] = ix.searchRange(start, ids, xy, lo, hi)",
		new:  "\t\t\tix.probes, ix.candidates = ix.searchRange(start, ids, xy, lo, hi)",
		test: "-run ^TestNewIndexParallelMatchesSerial$ ./internal/geom"},
	{file: "internal/geom/parallel.go", kind: "wait pair", lint: []string{"waitpair"},
		old:  "\t\twg.Add(1)\n\t\tgo func(g int) {",
		new:  "\t\tgo func(g int) {",
		test: "-run ^TestIndexOctantNearestMatchesBruteForce$ ./internal/geom"},
	{file: "internal/router/parallel.go", kind: "channel leak", lint: []string{"chanleak"},
		old:  "\tclose(jobs)\n\twg.Wait()",
		new:  "\twg.Wait()",
		test: "-timeout 20s -run ^TestRouteParallelAbortsOnError$ ./internal/router"},

	// Determinism, floats, allocation and errors.
	{file: "internal/engine/engine.go", kind: "map order", lint: []string{"detflow"},
		old:  "\t\tnames = append(names, n)\n\t}\n\tsort.Strings(names)\n",
		new:  "\t\tnames = append(names, n)\n\t}\n",
		test: "-run ^TestNamesSortedAndStable$ ./internal/engine"},
	// Demand coordinates are exact grid lines, so == happens to agree
	// with geom.Eq on every test netlist.
	{file: "internal/router/congestion.go", kind: "float compare", lint: []string{"floatcmp"},
		old: "\tcase geom.Eq(a.Y, b.Y): // horizontal",
		new: "\tcase a.Y == b.Y: // horizontal"},
	// A per-merge allocation changes no result; allocloop is the only
	// guard the build's allocation budget has.
	{file: "internal/core/forest.go", kind: "allocation", lint: []string{"allocloop"},
		old: "\tout := list[:0]\n",
		new: "\tout := make([]int32, 0, len(list))\n"},
	// No test makes the metrics write fail.
	{file: "internal/obs/snapshot.go", kind: "dropped error", lint: []string{"errdrop"},
		old: "\twerr := r.Snapshot().WriteJSON(f)\n\tcerr := f.Close()\n\tif werr != nil {\n\t\treturn werr\n\t}\n\treturn cerr",
		new: "\tr.Snapshot().WriteJSON(f)\n\treturn f.Close()"},
}

// apply returns src with m's edit made, or ok=false when m.old does not
// occur in src exactly once.
func (m mutant) apply(src string) (string, bool) {
	if strings.Count(src, m.old) != 1 || m.old == m.new {
		return "", false
	}
	return strings.Replace(src, m.old, m.new, 1), true
}

// TestMutationTable checks the table's shape and its lint column: each
// row's edit is made to an in-memory copy of the one file, its package
// is type-checked again and linted with every analyzer against the
// whole module, and the analyzers that report in that package must be
// exactly the row's.
func TestMutationTable(t *testing.T) {
	root := filepath.Join("..", "..")
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := listDeps(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i, m := range mutants {
		kinds[m.kind]++
		if len(m.lint) == 0 && m.test == "" {
			t.Errorf("row %d (%s): nothing kills it", i, m.file)
		}
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Fatal(err)
		}
		mutated, ok := m.apply(string(src))
		if !ok {
			t.Errorf("row %d: the edit's old text must occur exactly once in %s", i, m.file)
			continue
		}
		importPath := path.Join("repro", path.Dir(m.file))
		k := slices.IndexFunc(mod.Pkgs, func(p *Package) bool { return p.ImportPath == importPath })
		if k < 0 {
			t.Fatalf("row %d: no package %s", i, importPath)
		}
		orig := mod.Pkgs[k]
		files := slices.Clone(orig.Files)
		j := slices.IndexFunc(files, func(f *ast.File) bool {
			return filepath.Base(orig.Fset.Position(f.Package).Filename) == filepath.Base(m.file)
		})
		if j < 0 {
			t.Fatalf("row %d: %s is not a non-test file of %s", i, m.file, importPath)
		}
		files[j], err = parser.ParseFile(orig.Fset, orig.Fset.Position(files[j].Package).Filename, mutated,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("row %d: %v", i, err)
			continue
		}
		types, info, err := typeCheck(orig.Fset, importPath, files, importer.ForCompiler(orig.Fset, "gc", exportLookup(deps)))
		if err != nil {
			t.Errorf("row %d: the mutant does not compile: %v", i, err)
			continue
		}
		pkg := &Package{ImportPath: importPath, Dir: orig.Dir, Fset: orig.Fset, Files: files, Types: types, Info: info}
		pkgs := slices.Clone(mod.Pkgs)
		pkgs[k] = pkg
		newModule(pkgs)
		var got []string
		for _, d := range Run(pkg, All()) {
			if !slices.Contains(got, d.Analyzer) {
				got = append(got, d.Analyzer)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, m.lint) {
			t.Errorf("row %d (%s, %s): reported by %v, the table says %v", i, m.file, m.kind, got, m.lint)
		}
	}
	for _, kind := range []string{"subscript", "nil", "narrowing"} {
		if kinds[kind] < 6 {
			t.Errorf("%d %s rows, want at least 6", kinds[kind], kind)
		}
	}
}
