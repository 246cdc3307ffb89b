package analysis

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestPerPackageVerdict pins the one-verdict contract of LoadModule:
// linting a package alone reports exactly what the ./... run reports
// for it — the same findings and the same unused suppressions — because
// every load lists, type-checks and summarises the whole module and the
// patterns only pick the targets.
//
// The six packages whose verdict once changed when linted alone (their
// dependencies' summaries were built only for packages in the pattern)
// are each loaded alone. Every package is then checked on one more load
// that names each package by its own import path: the load set must be
// the module's, each path must select its package alone, and linting
// the packages one by one on the fresh module, in reverse order, must
// reproduce the ./... findings.
func TestPerPackageVerdict(t *testing.T) {
	root := filepath.Join("..", "..")
	whole, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]Diagnostic{}
	var paths []string
	for _, pkg := range whole.Targets {
		want[pkg.ImportPath] = RunAll(pkg, All())
		paths = append(paths, pkg.ImportPath)
	}
	if len(paths) < 30 {
		t.Fatalf("./... named %d packages; the module has more", len(paths))
	}
	check := func(mod *Module, path string) {
		t.Helper()
		if got, all := importPaths(mod.Pkgs), importPaths(whole.Pkgs); !reflect.DeepEqual(got, all) {
			t.Fatalf("loading %s loaded %v, want the whole module %v", path, got, all)
		}
		targets := named(mod.Pkgs, []string{path})
		if len(targets) != 1 || targets[0].ImportPath != path {
			t.Fatalf("pattern %s selects %v, want the package alone", path, importPaths(targets))
		}
		if got := RunAll(targets[0], All()); !reflect.DeepEqual(got, want[path]) {
			t.Errorf("%s alone:\n%v\nunder ./...:\n%v", path, got, want[path])
		}
	}

	for _, name := range []string{"baseline", "core", "delay", "exact", "exchange", "mst"} {
		path := "repro/internal/" + name
		mod, err := LoadModule(root, path)
		if err != nil {
			t.Fatal(err)
		}
		check(mod, path)
	}

	mod, err := LoadModule(root, paths...)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(paths) - 1; i >= 0; i-- {
		check(mod, paths[i])
	}
}

func importPaths(pkgs []*Package) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.ImportPath
	}
	return out
}
