package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseTestPkg type-checks inline sources as one package under a fake
// import path, resolving the given stdlib deps through export data.
func parseTestPkg(t *testing.T, importPath string, deps []string, srcs ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, fmt.Sprintf("src%d.go", i), src,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var imp types.Importer
	if len(deps) > 0 {
		entries, err := listDeps("", deps)
		if err != nil {
			t.Fatal(err)
		}
		imp = importer.ForCompiler(fset, "gc", exportLookup(entries))
	}
	pkg, info, err := typeCheck(fset, importPath, files, imp)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: importPath, Fset: fset, Files: files, Types: pkg, Info: info}
}

// findFunc returns the declaration of the named function.
func findFunc(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("no function %q in test package", name)
	return nil
}

// TestFuncIDStability pins the cross-package function key format:
// plain functions, value-receiver methods, and pointer-receiver
// methods must produce the same id whether the object came from source
// checking or export data (the receiver's pointerness is stripped).
func TestFuncIDStability(t *testing.T) {
	pkg := parseTestPkg(t, "repro/internal/fixture", nil, `package fixture

type T struct{}

func F()       {}
func (T) M()   {}
func (t *T) P() {}
`)
	want := map[string]string{
		"F": "repro/internal/fixture.F",
		"M": "repro/internal/fixture.(T).M",
		"P": "repro/internal/fixture.(T).P",
	}
	for name, id := range want {
		fd := findFunc(t, pkg, name)
		obj := pkg.Info.Defs[fd.Name]
		if got := funcID(obj); got != id {
			t.Errorf("funcID(%s) = %q, want %q", name, got, id)
		}
	}
}

// TestDefUseSanitizeKills proves the flow-sensitive core of detflow:
// a sort over a value is a strong, clean redefinition, so the tainted
// append defs must not reach past it.
func TestDefUseSanitizeKills(t *testing.T) {
	pkg := parseTestPkg(t, "repro/internal/fixture", []string{"sort"}, `package fixture

import "sort"

func keys(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`)
	fd := findFunc(t, pkg, "keys")
	p := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, pkg: pkg}
	du := buildDefUse(p, fd.Body, paramObjects(p, fd))

	var outObj types.Object
	var retPos token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "out" && outObj == nil {
			outObj = pkg.Info.Defs[id]
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			retPos = ret.Results[0].Pos()
		}
		return true
	})
	if outObj == nil || retPos == token.NoPos {
		t.Fatal("fixture shape changed: no out object or return position")
	}

	defs := du.reachingAt(outObj, retPos)
	if len(defs) != 1 {
		t.Fatalf("got %d reaching defs at return, want exactly the sanitize def", len(defs))
	}
	if defs[0].kind != dfSanitize {
		t.Errorf("reaching def kind = %v, want dfSanitize", defs[0].kind)
	}
}

// TestAllocSummaryChain proves the fixed-point propagation in the
// module summaries: an allocation two calls down surfaces in the
// caller's summary with the callee chain spelled out.
func TestAllocSummaryChain(t *testing.T) {
	pkg := parseTestPkg(t, "repro/internal/fixture", nil,
		`package fixture

func a() []int { return b() }
`,
		`package fixture

func b() []int { return c() }

func c() []int { return make([]int, 4) }
`)
	m := newModule([]*Package{pkg})
	sums := m.allocSummaries()

	byName := func(name string) *modFunc {
		fn := m.funcs["repro/internal/fixture."+name]
		if fn == nil {
			t.Fatalf("module did not index %q", name)
		}
		return fn
	}
	if s := sums[byName("c")]; len(s.sites) != 1 || s.sites[0].what != "make" {
		t.Errorf("c summary = %+v, want one direct make site", s)
	}
	if s := sums[byName("b")]; len(s.sites) != 1 || s.sites[0].what != "c -> make" {
		t.Errorf("b summary = %+v, want the c -> make chain", s)
	}
	if s := sums[byName("a")]; len(s.sites) != 1 || s.sites[0].what != "b -> c -> make" {
		t.Errorf("a summary = %+v, want the b -> c -> make chain", s)
	}
}

// TestModuleResolveAcrossFiles pins call resolution inside a module:
// same-package calls resolve by object identity even across files, and
// unresolvable callees (builtins, stdlib) come back nil.
func TestModuleResolveAcrossFiles(t *testing.T) {
	pkg := parseTestPkg(t, "repro/internal/fixture", nil,
		`package fixture

func caller() []int { return helper() }
`,
		`package fixture

func helper() []int { return make([]int, 1) }
`)
	m := newModule([]*Package{pkg})
	fd := findFunc(t, pkg, "caller")
	var resolved *modFunc
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && resolved == nil {
			resolved = m.resolve(pkg, call)
		}
		return true
	})
	if resolved == nil || resolved.decl.Name.Name != "helper" {
		t.Fatalf("resolve(helper()) = %v, want the helper declaration", resolved)
	}
	fd = findFunc(t, pkg, "helper")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := m.resolve(pkg, call); fn != nil {
				t.Errorf("resolve(make(...)) = %v, want nil for a builtin", fn)
			}
		}
		return true
	})
}
