package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	mod   *Module  // module this package was loaded into, when LoadModule was used
	match []string // the load patterns that named this package
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Match      []string // the command-line patterns naming the package
	DepOnly    bool     // listed only as a dependency of a named package
	Error      *struct{ Err string }
}

// LoadError is a package that could not be listed, parsed, or
// type-checked. Drivers use it to name the failing package and exit
// distinctly from "findings present".
type LoadError struct {
	ImportPath string // import path, or the pattern when listing failed
	Err        error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("loading %s: %v", e.ImportPath, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// goList runs `go list` in dir with the given arguments and decodes
// the JSON package stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// listDeps lists the patterns and all of their dependencies with
// export data. A package that fails to build or comes back without
// export data is a hard, typed error naming the package: silently
// dropping it would shrink the interprocedural call graph — calls into
// the missing package would stop resolving and the module-wide
// analyzers (ctxflow, allocloop, lockorder, detflow summaries) would go
// quietly blind there.
func listDeps(dir string, patterns []string) ([]listEntry, error) {
	// -e keeps go list from dying with an unstructured message on a
	// broken package: the entry comes back with Error set instead, so
	// the failure can be attributed to its import path.
	entries, err := goList(dir, append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Match,DepOnly,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.ImportPath == "unsafe" {
			continue // compiler intrinsic: never has export data
		}
		if e.Error != nil {
			name := e.ImportPath
			if name == "" {
				name = e.Dir
			}
			return nil, &LoadError{ImportPath: name, Err: fmt.Errorf("%s", e.Error.Err)}
		}
		if e.Export == "" {
			return nil, &LoadError{
				ImportPath: e.ImportPath,
				Err:        fmt.Errorf("missing export data (partial module load would silently shrink the interprocedural call graph)"),
			}
		}
	}
	return entries, nil
}

// exportLookup is the gc importer's view of the listed export data.
func exportLookup(entries []listEntry) func(path string) (io.ReadCloser, error) {
	exports := map[string]string{}
	for _, e := range entries {
		exports[e.ImportPath] = e.Export
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// LoadModule loads the whole module that contains dir (an empty dir
// means the current directory) and marks the packages matching the
// patterns (./... when none are given) as its Targets. Every package is
// parsed from its non-test Go files and type-checked against the
// toolchain's export data; test files are deliberately excluded, as
// determinism tests compare exact floats and time test execution on
// purpose. The packages share a file set and are indexed into one
// module-wide call graph, so the interprocedural analyzers resolve
// calls across package boundaries to source-checked declarations, and
// a package gets the same summaries — and so the same findings —
// whichever patterns named it. Partial loads are refused with a typed
// *LoadError naming the broken package.
func LoadModule(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	list := patterns
	if root, ok := moduleRoot(dir); ok {
		list = append(list[:len(list):len(list)], filepath.Join(root, "..."))
	}
	entries, err := listDeps(dir, list)
	if err != nil {
		return nil, err
	}
	pkgs, err := checkPackages(entries)
	if err != nil {
		return nil, err
	}
	mod := newModule(pkgs)
	mod.Targets = named(pkgs, patterns)
	return mod, nil
}

// checkPackages parses and type-checks the listed packages that are not
// mere dependencies, in import-path order.
func checkPackages(entries []listEntry) ([]*Package, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(entries))
	var pkgs []*Package
	for _, t := range entries {
		if t.DepOnly || len(t.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(t.GoFiles))
		names := append([]string(nil), t.GoFiles...)
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(t.Dir, name)
			f, err := parser.ParseFile(fset, relToCwd(path), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, &LoadError{ImportPath: t.ImportPath, Err: fmt.Errorf("parsing: %v", err)}
			}
			files = append(files, f)
		}
		pkg, info, err := typeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, &LoadError{ImportPath: t.ImportPath, Err: fmt.Errorf("type-checking: %v", err)}
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      pkg,
			Info:       info,
			match:      t.Match,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// named returns the packages one of the patterns matched, in order.
func named(pkgs []*Package, patterns []string) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if slices.ContainsFunc(p.match, func(m string) bool { return slices.Contains(patterns, m) }) {
			out = append(out, p)
		}
	}
	return out
}

// moduleRoot returns the directory of the go.mod governing dir.
func moduleRoot(dir string) (string, bool) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", false
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, true
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", false
		}
		d = parent
	}
}

// typeCheck runs go/types over one package's parsed files.
func typeCheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// relToCwd shortens path relative to the working directory when
// possible, so diagnostics print repo-relative positions.
func relToCwd(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
