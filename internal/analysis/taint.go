package analysis

// taint.go is the determinism-taint engine behind the detflow analyzer
// and the per-function taint summaries. A value is tainted when its
// bytes can differ between two runs on the same input:
//
//   - the winner of a select with two or more communication cases;
//   - wall-clock reads (time.Now/Since/Until) and random values
//     (package-level math/rand and crypto/rand calls; a generator from
//     rand.New is as deterministic as its seed);
//   - formatted pointers/maps/channels/funcs (fmt.Sprintf("%v", ptr)
//     prints an address that changes across runs).
//
// Taint propagates flow-sensitively through the def-use chains of
// dataflow.go: assignments, append, arithmetic, composite literals,
// field/index reads of tainted values, and calls — module-internal
// calls through their fixed-point summaries, external calls by the
// conservative "any tainted argument taints the result" rule. A
// sort.* / slices.* call over a value is a clean redefinition: sorting
// is exactly the operation that turns a map-ordered sequence back into
// a deterministic one. Map iteration order is not a taint source here:
// detflow reports each map-order accumulation on its own line.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// taintInfo is the lattice element: clean (tainted=false) or tainted
// with a human-readable origin.
type taintInfo struct {
	tainted bool
	why     string
}

func (t taintInfo) or(u taintInfo) taintInfo {
	if t.tainted {
		return t
	}
	return u
}

var cleanInfo = taintInfo{}

// taintSummary is the module-level fact about one function.
type taintSummary struct {
	// introduces: the function can return a tainted value even when all
	// of its parameters are clean.
	introduces bool
	why        string
	// propagates: tainted parameters can reach the return values.
	propagates bool
}

// taintCtx evaluates taint inside one function body.
type taintCtx struct {
	p             *Pass
	m             *Module
	du            *defUse
	body          *ast.BlockStmt
	paramsTainted bool
	facts         map[*dfDef]taintInfo
	multiSelects  []*ast.SelectStmt
}

// newTaintCtx builds the evaluation context and runs the per-def fixed
// point (def facts only grow clean→tainted, so iteration terminates).
func newTaintCtx(p *Pass, m *Module, du *defUse, body *ast.BlockStmt, paramsTainted bool) *taintCtx {
	tc := &taintCtx{
		p: p, m: m, du: du, body: body,
		paramsTainted: paramsTainted,
		facts:         map[*dfDef]taintInfo{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		if n, ok := n.(*ast.SelectStmt); ok {
			comms := 0
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				tc.multiSelects = append(tc.multiSelects, n)
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, d := range tc.du.defs {
			cur := tc.facts[d]
			if cur.tainted {
				continue
			}
			if nv := tc.defTaint(d); nv.tainted {
				tc.facts[d] = nv
				changed = true
			}
		}
	}
	return tc
}

// defTaint derives the taint of one definition from its kind and
// defining expression.
func (tc *taintCtx) defTaint(d *dfDef) taintInfo {
	switch d.kind {
	case dfParam:
		if tc.paramsTainted {
			return taintInfo{true, "tainted parameter"}
		}
		return cleanInfo
	case dfSanitize:
		return cleanInfo
	case dfRangeKey, dfRangeVal:
		// Ranging over a tainted sequence yields tainted elements; map
		// keys/values themselves are deterministic values (only their
		// order is not, which detflow reports where it accumulates).
		rs := d.node.(*ast.RangeStmt)
		return tc.taintExpr(rs.X, rs.X.Pos())
	}
	// dfAssign / dfWeak: the defining expression.
	if d.rhs != nil {
		return tc.taintExpr(d.rhs, d.pos)
	}
	return cleanInfo
}

// taintExpr evaluates the taint of an expression at a program point.
func (tc *taintCtx) taintExpr(e ast.Expr, at token.Pos) taintInfo {
	switch e := e.(type) {
	case nil:
		return cleanInfo
	case *ast.Ident:
		obj := tc.p.Info.ObjectOf(e)
		if obj == nil {
			return cleanInfo
		}
		var out taintInfo
		for _, d := range tc.du.reachingAt(obj, at) {
			out = out.or(tc.facts[d])
		}
		return out
	case *ast.ParenExpr:
		return tc.taintExpr(e.X, at)
	case *ast.SelectorExpr:
		return tc.taintExpr(e.X, at)
	case *ast.IndexExpr:
		return tc.taintExpr(e.X, at).or(tc.taintExpr(e.Index, at))
	case *ast.SliceExpr:
		return tc.taintExpr(e.X, at)
	case *ast.StarExpr:
		return tc.taintExpr(e.X, at)
	case *ast.TypeAssertExpr:
		return tc.taintExpr(e.X, at)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if sel := tc.enclosingMultiSelect(e.Pos()); sel != nil {
				return taintInfo{true, "select winner order at " + lineOf(tc.p.Fset, sel.Pos())}
			}
		}
		return tc.taintExpr(e.X, at)
	case *ast.BinaryExpr:
		return tc.taintExpr(e.X, at).or(tc.taintExpr(e.Y, at))
	case *ast.KeyValueExpr:
		return tc.taintExpr(e.Value, at)
	case *ast.CompositeLit:
		var out taintInfo
		for _, el := range e.Elts {
			out = out.or(tc.taintExpr(el, at))
		}
		return out
	case *ast.CallExpr:
		return tc.taintCall(e, at)
	}
	return cleanInfo
}

// enclosingMultiSelect returns the multi-case select whose comm clauses
// contain pos, or nil. Only the Comm statements count: a receive inside
// a case *body* is an ordinary receive.
func (tc *taintCtx) enclosingMultiSelect(pos token.Pos) *ast.SelectStmt {
	for _, sel := range tc.multiSelects {
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if cc.Comm.Pos() <= pos && pos < cc.Comm.End() {
				return sel
			}
		}
	}
	return nil
}

// taintCall evaluates a call expression: sources, sanitizers, module
// summaries, then the conservative external default.
func (tc *taintCtx) taintCall(call *ast.CallExpr, at token.Pos) taintInfo {
	p := tc.p
	// Builtins: append propagates its arguments; everything else
	// (len, cap, make, new, copy, delete, min, max) is clean.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var out taintInfo
				for _, arg := range call.Args {
					out = out.or(tc.taintExpr(arg, at))
				}
				return out
			}
			return cleanInfo
		}
	}
	// Conversions: T(x) keeps x's taint.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return tc.taintExpr(call.Args[0], at)
		}
		return cleanInfo
	}

	if pkgPath, name := calleePkgFunc(p, call); pkgPath != "" {
		switch {
		case pkgPath == "sort" || pkgPath == "slices":
			return cleanInfo // ordering sink: result (and receiver) deterministic
		case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
			// The obs package IS the timing layer: its snapshots carry
			// wall-clock metadata (CapturedAt, durations) on purpose,
			// mirroring the wallclock analyzer's exemption. Clock reads
			// become taint only where they could leak into construction
			// outputs.
			if tc.p.Pkg != nil && tc.p.Pkg.Path() == "repro/internal/obs" {
				return cleanInfo
			}
			return taintInfo{true, "wall-clock read (time." + name + ") at " + lineOf(tc.p.Fset, call.Pos())}
		case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && strings.HasPrefix(name, "New"):
			// rand.New(rand.NewSource(seed)) is as deterministic as its
			// seed; the generator's methods then take the receiver's
			// taint through the external-callee rule below.
			return tc.argTaint(call, at)
		case pkgPath == "math/rand" || pkgPath == "math/rand/v2" || pkgPath == "crypto/rand":
			return taintInfo{true, "random value (" + pkgPath + "." + name + ") at " + lineOf(tc.p.Fset, call.Pos())}
		case pkgPath == "fmt" && strings.HasPrefix(name, "Sprint"),
			pkgPath == "fmt" && strings.HasPrefix(name, "Append"):
			for _, arg := range call.Args {
				if addressish(p.TypeOf(arg)) {
					return taintInfo{true, "formatted pointer value at " + lineOf(tc.p.Fset, call.Pos())}
				}
			}
		}
	}

	if fn := tc.m.resolve(p.pkg, call); fn != nil {
		sum := tc.m.taint[fn]
		var out taintInfo
		if sum != nil && sum.introduces {
			out = taintInfo{true, sum.why}
		}
		if sum == nil || sum.propagates {
			out = out.or(tc.argTaint(call, at))
		}
		return out
	}
	// External or indirect callee: any tainted input taints the result.
	return tc.argTaint(call, at)
}

// argTaint unions the taint of the call's arguments and method
// receiver.
func (tc *taintCtx) argTaint(call *ast.CallExpr, at token.Pos) taintInfo {
	var out taintInfo
	for _, arg := range call.Args {
		out = out.or(tc.taintExpr(arg, at))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		out = out.or(tc.taintExpr(sel.X, at))
	}
	return out
}

// calleePkgFunc resolves a call to (package path, name) for package-
// level functions, or ("", "") otherwise: methods, func values and
// builtins do not match.
func calleePkgFunc(p *Pass, call *ast.CallExpr) (string, string) {
	fn, ok := calleeAny(p, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// addressish reports whether formatting a value of type t prints a
// run-varying address: pointers, maps, channels, funcs, unsafe
// pointers. Structs/slices of such are left alone — %v descends into
// elements, but the common offender is the direct pointer argument.
func addressish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// returnTaints evaluates every return statement of the function and
// reports the first tainted result with its position and origin.
func (tc *taintCtx) returnTaints(fn *modFunc) []taintedReturn {
	var out []taintedReturn
	resultObjs := namedResultObjects(tc.p, fn.decl)
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			// Bare return: named results carry the values.
			for _, obj := range resultObjs {
				var info taintInfo
				for _, d := range tc.du.reachingAt(obj, ret.Pos()) {
					info = info.or(tc.facts[d])
				}
				if info.tainted {
					out = append(out, taintedReturn{ret: ret, expr: nil, info: info})
					break
				}
			}
			return true
		}
		for _, res := range ret.Results {
			if info := tc.taintExpr(res, ret.Pos()); info.tainted {
				out = append(out, taintedReturn{ret: ret, expr: res, info: info})
				break
			}
		}
		return true
	})
	return out
}

type taintedReturn struct {
	ret  *ast.ReturnStmt
	expr ast.Expr // nil for bare returns
	info taintInfo
}

// namedResultObjects returns the objects of the function's named
// results, if any.
func namedResultObjects(p *Pass, fd *ast.FuncDecl) []types.Object {
	if fd.Type.Results == nil {
		return nil
	}
	var out []types.Object
	for _, f := range fd.Type.Results.List {
		for _, name := range f.Names {
			if obj := p.Info.ObjectOf(name); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// taintSummaries computes the module's per-function taint summaries by
// monotone fixed point (see the package comment in summary.go). A
// function's summary depends only on its module callees' summaries, so
// after the first round a function is re-evaluated only when one of
// them changed: later in the same round when it comes after the callee
// in m.order, else in the next round. That is the order in which a
// full sweep per round first sees each change, so the summaries and
// their origins are the full sweep's.
func (m *Module) taintSummaries() map[*modFunc]*taintSummary {
	if m.taint != nil {
		return m.taint
	}
	m.taint = map[*modFunc]*taintSummary{}
	callers := map[*modFunc][]int{}
	for i, fn := range m.order {
		m.taint[fn] = &taintSummary{}
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := m.resolve(fn.pkg, call); callee != nil {
					callers[callee] = append(callers[callee], i)
				}
			}
			return true
		})
	}
	dirty := make([]bool, len(m.order))
	for i := range dirty {
		dirty[i] = true
	}
	for round := 0; round < 32; round++ {
		changed := false
		for i, fn := range m.order {
			if !dirty[i] {
				continue
			}
			dirty[i] = false
			s, was := m.taint[fn], *m.taint[fn]
			// Tainting the parameters only adds taint, so a function
			// whose returns stay clean with tainted parameters neither
			// propagates nor introduces: the clean evaluation runs only
			// when the tainted one finds something.
			if !s.propagates {
				tc := newTaintCtx(fn.pass(), m, fn.defUse(), fn.decl.Body, true)
				s.propagates = len(tc.returnTaints(fn)) > 0
			}
			if s.propagates && !s.introduces {
				tc := newTaintCtx(fn.pass(), m, fn.defUse(), fn.decl.Body, false)
				if rets := tc.returnTaints(fn); len(rets) > 0 {
					s.introduces, s.why = true, rets[0].info.why
				}
			}
			if *s != was {
				for _, c := range callers[fn] {
					dirty[c] = true
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return m.taint
}
