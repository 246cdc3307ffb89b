package analysis

// detflow enforces the determinism contract: the bytes a construction,
// a response or a report emits must not depend on anything but the
// input. It checks two shapes, in every package:
//
//   - map iteration order, locally: a `range` over a map whose body
//     accumulates into an outer slice, float or string that is not
//     sorted afterwards, or writes output directly. The defect is
//     reported on the accumulating or writing line;
//   - the other run-varying values (select winners, wall-clock reads,
//     unseeded random values, formatted pointers), interprocedurally:
//     detflow follows them through def-use chains and across calls via
//     the module taint summaries, so a clock read three helpers down
//     still lights up at the exported return or output write it
//     reaches.
//
// Map order is not a propagated taint: every accumulation that could
// carry it is already a local finding, so propagating it too would
// report each defect twice.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow reports nondeterminism reaching an order-sensitive sink.
// Sinks are:
//
//   - any return value of an exported function or method (the
//     package's determinism contract applies to its API surface);
//   - output writes: fmt print family, Write/WriteString/WriteByte/
//     WriteRune methods, and (*json.Encoder).Encode / json.Marshal;
//   - http.ResponseWriter writes in the serving layer (covered by the
//     Write rule — the writer's static type does not matter).
//
// A sort.* or slices.* call over the value re-establishes determinism
// (the def-use engine models it as a clean redefinition; for map
// ranges, a sort of the accumulator after the loop), so the approved
// append-then-sort idiom passes.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "nondeterministic values (map order, select winners, clocks, random values, pointers) must not reach returns or output unsorted",
	Run:  runDetFlow,
}

func runDetFlow(p *Pass) {
	m := p.module()
	m.taintSummaries() // ensure summaries exist before local evaluation
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					reportMapRanges(p, n.Body)
				}
				return false
			case *ast.FuncLit: // package-level initializers
				reportMapRanges(p, n.Body)
				return false
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := m.byObj[p.Info.Defs[fd.Name]]
			if fn == nil {
				continue
			}
			tc := newTaintCtx(p, m, fn.defUse(), fd.Body, false)
			if ast.IsExported(fd.Name.Name) {
				for _, tr := range tc.returnTaints(fn) {
					pos := tr.ret.Pos()
					if tr.expr != nil {
						pos = tr.expr.Pos()
					}
					p.Reportf(pos,
						"nondeterministic value reaches exported return: %s; order it with sort.* before returning",
						tr.info.why)
				}
			}
			reportSinkCalls(p, tc, fd)
		}
	}
}

// reportMapRanges checks every map range in one function body. A range
// inside a function literal is checked against the literal's body, so
// a sort counts only in the function that owns the accumulator.
func reportMapRanges(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			reportMapRanges(p, n.Body)
			return false
		case *ast.RangeStmt:
			if isMapRange(p, n) {
				checkMapRange(p, body, n)
			}
		}
		return true
	})
}

// checkMapRange reports each order-sensitive sink in one map range
// body. A nested map range is left to its own check, so a defect is
// reported once, against its innermost range.
func checkMapRange(p *Pass, body *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			return !isMapRange(p, n)
		case *ast.AssignStmt:
			if lhs := mapOrderAccumulation(p, n, rs); lhs != nil && !sortedAfter(p, body, rs, rootObject(p, lhs)) {
				p.Reportf(n.Pos(),
					"map iteration order at %s reaches %s: sort it afterwards or iterate sorted keys",
					lineOf(p.Fset, rs.Pos()), types.ExprString(lhs))
			}
		case *ast.CallExpr:
			if sink, _ := outputSink(p, n); sink != "" {
				p.Reportf(n.Pos(),
					"map iteration order at %s reaches output via %s: iterate sorted keys instead",
					lineOf(p.Fset, rs.Pos()), sink)
			}
		}
		return true
	})
}

func isMapRange(p *Pass, rs *ast.RangeStmt) bool {
	t := p.TypeOf(rs.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapOrderAccumulation returns the accumulator through which the
// assignment leaks map iteration order, or nil: s = append(s, ...) on
// a slice declared outside the range, or s op= v on a float or string
// declared outside it (float addition is not associative, and string
// concatenation keeps the order).
func mapOrderAccumulation(p *Pass, as *ast.AssignStmt, rs *ast.RangeStmt) ast.Expr {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		if t := p.TypeOf(lhs); (isFloat(t) || isString(t)) && declaredOutside(p, lhs, rs) {
			return lhs
		}
		return nil
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if ok && isBuiltinAppend(p, call) && len(call.Args) > 0 &&
			rootObject(p, lhs) == rootObject(p, call.Args[0]) && declaredOutside(p, lhs, rs) {
			return lhs
		}
	}
	return nil
}

// declaredOutside reports whether the variable behind e is declared
// outside the range statement (package vars and struct fields count).
func declaredOutside(p *Pass, e ast.Expr, rs *ast.RangeStmt) bool {
	obj := rootObject(p, e)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

func isBuiltinAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sortedAfter reports whether obj appears in an argument of a sort.* or
// slices.* call after the range statement in the same function body.
func sortedAfter(p *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(p, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// reportSinkCalls flags output-writing calls whose payload is tainted.
func reportSinkCalls(p *Pass, tc *taintCtx, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink, payload := outputSink(p, call)
		if sink == "" {
			return true
		}
		for _, arg := range payload {
			if info := tc.taintExpr(arg, call.Pos()); info.tainted {
				p.Reportf(call.Pos(),
					"nondeterministic value reaches output via %s: %s; sort it first", sink, info.why)
				break
			}
		}
		return true
	})
}

// outputSink classifies a call as an output sink and returns the
// payload arguments to check. fmt.Fprint* skips the writer argument.
func outputSink(p *Pass, call *ast.CallExpr) (string, []ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		return "", nil
	}
	name := obj.Name()
	if obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt":
			switch {
			case strings.HasPrefix(name, "Fprint"):
				if len(call.Args) > 0 {
					return "fmt." + name, call.Args[1:]
				}
			case strings.HasPrefix(name, "Print"):
				return "fmt." + name, call.Args
			}
			return "", nil
		case "encoding/json":
			if name == "Marshal" || name == "MarshalIndent" {
				return "json." + name, call.Args
			}
			return "", nil
		}
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return name, call.Args
		case "Encode":
			if recvPkgPath(sig) == "encoding/json" {
				return "json.Encoder.Encode", call.Args
			}
		}
	}
	return "", nil
}

// recvPkgPath returns the package path of a method's receiver type.
func recvPkgPath(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}
