package analysis

// summary.go builds the one call graph the analyzers share: module-wide,
// with per-function summaries. Each declared function in every loaded
// package becomes a modFunc node keyed by a stable string id (import
// path + receiver + name), so a call site in package A resolves to the
// source-checked declaration in package B even though go/types gives A
// an export-data view of B's objects.
//
// On top of the graph, the interprocedural analyzers compute summaries
// by monotone fixed point: every summary bit starts at its optimistic
// bottom value (no taint, no hungry loop, no allocation, no locks) and
// is re-derived from callee summaries until a full round changes
// nothing. Bits only ever move bottom→top, so the iteration reaches
// the least fixed point and terminates; recursion is handled by the
// same argument, no special casing. Calls that do not resolve inside
// the module (stdlib, interface dispatch, func values) get explicit
// conservative defaults documented per analyzer.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Module is a set of packages loaded together, with the interprocedural
// caches the module-wide analyzers share.
type Module struct {
	// Pkgs is every loaded package, by import path: the summaries and
	// the call graph cover all of them.
	Pkgs []*Package
	// Targets is the subset of Pkgs the load patterns named, by import
	// path: the packages tools/lint reports findings for.
	Targets []*Package

	funcs   map[string]*modFunc // by funcID
	byObj   map[types.Object]*modFunc
	order   []*modFunc // deterministic iteration order (package, file, position)
	taint   map[*modFunc]*taintSummary
	hungry  map[*modFunc]*hungrySummary
	alloc   map[*modFunc]*allocSummary
	locks   *lockGraph
	chanops map[*modFunc]*chanOpSummary
}

// modFunc is one declared function or method in the module.
type modFunc struct {
	id   string
	pkg  *Package
	decl *ast.FuncDecl
	obj  types.Object
	du   *defUse // lazily built def-use chains for the body
}

// pass returns a Pass-shaped view of the function's home package for
// the shared helpers (they only touch Fset/Info/Pkg).
func (fn *modFunc) pass() *Pass {
	return &Pass{Fset: fn.pkg.Fset, Files: fn.pkg.Files, Pkg: fn.pkg.Types, Info: fn.pkg.Info, pkg: fn.pkg}
}

func (fn *modFunc) defUse() *defUse {
	if fn.du == nil {
		p := fn.pass()
		fn.du = buildDefUse(p, fn.decl.Body, paramObjects(p, fn.decl))
	}
	return fn.du
}

// funcID builds the stable cross-package key for a function object:
// "path.Name" for functions, "path.(Recv).Name" for methods. The
// receiver is the named type's name with pointerness stripped, which
// matches between export data and source checking.
func funcID(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	path := obj.Pkg().Path()
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // interface or weird receiver: not a module decl
		}
		return fmt.Sprintf("%s.(%s).%s", path, named.Obj().Name(), obj.Name())
	}
	return path + "." + obj.Name()
}

// newModule indexes the loaded packages into a module. Load callers get
// this through LoadModule; fixture tests build one implicitly via
// Pass.module().
func newModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		funcs: map[string]*modFunc{},
		byObj: map[types.Object]*modFunc{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				fn := &modFunc{id: funcID(obj), pkg: pkg, decl: fd, obj: obj}
				if fn.id == "" {
					continue
				}
				m.funcs[fn.id] = fn
				m.byObj[obj] = fn
				m.order = append(m.order, fn)
			}
		}
		pkg.mod = m
	}
	return m
}

// module returns the Module the pass's package belongs to, building a
// single-package module on the fly when the package was loaded outside
// LoadModule (fixture tests, direct Load callers).
func (p *Pass) module() *Module {
	if p.pkg == nil {
		return newModule(nil)
	}
	if p.pkg.mod == nil {
		newModule([]*Package{p.pkg})
	}
	return p.pkg.mod
}

// resolve maps a call expression in pkg to the module function it
// invokes, or nil when the callee is outside the module (stdlib,
// interface method, func value, builtin).
func (m *Module) resolve(pkg *Package, call *ast.CallExpr) *modFunc {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	if obj == nil {
		return nil
	}
	if fn := m.byObj[obj]; fn != nil {
		return fn // same-package call: direct object identity
	}
	id := funcID(obj)
	if id == "" {
		return nil
	}
	return m.funcs[id]
}

// callPassesCancel reports whether the call forwards a context.Context
// or *cancel.Checker to its callee (arguments or method receiver).
func callPassesCancel(p *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := p.TypeOf(arg); t != nil && (isContextType(t) || isCancelChecker(t)) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := p.TypeOf(sel.X); t != nil && (isContextType(t) || isCancelChecker(t)) {
			return true
		}
	}
	return false
}

// forEachCall visits every call expression in the function body outside
// nested function literals, in source order.
func forEachCall(fn *modFunc, visit func(*ast.CallExpr)) {
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// exportedFromPkg reports whether the function is callable from outside
// its package (exported name, or method on an exported type... the
// conservative side is fine: treat any exported-name decl as an API
// surface).
func exportedFromPkg(fn *modFunc) bool {
	return ast.IsExported(fn.decl.Name.Name)
}

// chainString renders a call chain like "a -> b -> c" for diagnostics,
// trimming the import-path prefixes down to package basenames.
func chainString(ids []string) string {
	short := make([]string, len(ids))
	for i, id := range ids {
		if j := strings.LastIndex(id, "/"); j >= 0 {
			id = id[j+1:]
		}
		short[i] = id
	}
	return strings.Join(short, " -> ")
}

// lineOf renders pos as "file:line" for the origin chains diagnostics
// carry.
func lineOf(fset *token.FileSet, pos token.Pos) string {
	pp := fset.Position(pos)
	return pp.Filename + ":" + strconv.Itoa(pp.Line)
}
