package analysis

// ctxflow enforces the cancellation contract: every construction entry
// point threads a context.Context, and the instance-sized loops it runs
// poll an internal/cancel stride Checker (or the context itself) so a
// deadline or cancellation lands promptly even mid-scan. Both shapes it
// reports are decided on the module call graph of summary.go:
//
//   - an instance-sized work loop inside a cancellable function, or
//     inside a function literal that handles a context or Checker (a
//     goroutine body polls for itself), that reaches no poll directly,
//     through module callees, or through an enclosing loop;
//   - a call site where a cancellable function drops its context into a
//     hungry callee. The local check cannot see f(ctx) calling g()
//     calling h() whose O(n²) scan never polls: g and h have no context
//     and therefore no local obligation. The summary
//
//	hungry(f) = f has an instance-sized work loop that reaches no
//	            poll (directly or through module callees), or
//	            f calls a hungry module function without forwarding
//	            a ctx/Checker, outside any polled loop of f
//
// is computed by fixed point, and the finding lands where the context
// was dropped. A call inside a loop that itself polls is exempt: the
// per-iteration poll bounds the cancellation gap to one callee
// invocation, which is exactly the stride-poll design the construction
// engine uses (poll once per edge, keep the subroutines context-free).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cancelPath is the import path of the stride-poller package.
const cancelPath = "repro/internal/cancel"

// ctxFlowPackages are the packages whose constructions promise prompt
// cancellation: the deterministic construction layers, the engine that
// dispatches them, and the serving layer in front of it.
var ctxFlowPackages = []string{
	"repro/internal/core",
	"repro/internal/mst",
	"repro/internal/steiner",
	"repro/internal/baseline",
	"repro/internal/exchange",
	"repro/internal/exact",
	"repro/internal/delay",
	"repro/internal/engine",
	"repro/internal/serve",
}

// CtxFlow reports unpolled instance-sized loops and context-dropping
// call sites in cancellable code of the construction packages.
//
// A function scope is cancellable when it handles a context.Context or
// a cancel.Checker (parameter, local, or receiver field). A loop
// "reaches a poll" when its body contains, directly or through module
// callees, a cancel.Checker Tick or Err call, a ctx.Done() / ctx.Err()
// read, or a call that passes a context.Context on (the callee inherits
// the obligation).
//
// "Instance-sized" is a syntactic approximation: ranges over slices,
// maps and channels, `for` statements without a condition, and `for`
// conditions that read a length, field or element. Loops bounded by a
// plain local variable (worker counts, retry budgets) are exempt —
// known imprecision, documented in DESIGN.md §10. Only loops that do
// real work per iteration are held to the contract: a body with a
// nested loop or a call into this module.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "cancellable code must poll ctx/cancel.Checker in every instance-sized loop it runs or reaches, across calls",
	AppliesTo: func(importPath string) bool {
		return pathIn(importPath, ctxFlowPackages...)
	},
	Run: runCtxFlow,
}

// hungrySummary is the module-level cancellation fact about a function.
type hungrySummary struct {
	hungry bool
	why    string // reason chain for diagnostics
	polls  bool   // body contains a poll call (directly or via module callees)
}

func runCtxFlow(p *Pass) {
	m := p.module()
	sums := m.hungrySummaries()
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil && handlesCancellation(p, body) {
				for _, loop := range m.unpolledLoops(p, body) {
					p.Reportf(loop.Pos(),
						"instance-sized loop without a cancellation poll: add a cancel.Checker Tick/Err (or poll ctx) so cancellation lands mid-scan")
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := m.byObj[p.Info.Defs[fd.Name]]
			if fn == nil || !handlesCancellation(p, fd.Body) {
				continue
			}
			forEachCall(fn, func(call *ast.CallExpr) {
				callee := m.resolve(p.pkg, call)
				if callee == nil {
					return
				}
				s := sums[callee]
				if s == nil || !s.hungry || callPassesCancel(p, call) {
					return
				}
				if m.inPolledLoop(fn, call.Pos()) {
					return
				}
				p.Reportf(call.Pos(),
					"context dropped at call to %s: %s; thread ctx or a cancel.Checker through this call",
					callee.decl.Name.Name, s.why)
			})
		}
	}
}

// hungrySummaries computes the module's cancellation-reachability
// summaries by monotone fixed point.
func (m *Module) hungrySummaries() map[*modFunc]*hungrySummary {
	if m.hungry != nil {
		return m.hungry
	}
	m.hungry = map[*modFunc]*hungrySummary{}
	for _, fn := range m.order {
		m.hungry[fn] = &hungrySummary{polls: bodyPollsDirect(fn)}
	}
	// polls propagates through module calls first (a function whose
	// callee polls counts as reaching a poll)...
	for changed := true; changed; {
		changed = false
		for _, fn := range m.order {
			s := m.hungry[fn]
			if s.polls {
				continue
			}
			forEachCall(fn, func(call *ast.CallExpr) {
				if callee := m.resolve(fn.pkg, call); !s.polls && callee != nil && m.hungry[callee].polls {
					s.polls = true
					changed = true
				}
			})
		}
	}
	// ...then hungriness propagates up through ctx-less calls.
	for changed := true; changed; {
		changed = false
		for _, fn := range m.order {
			s := m.hungry[fn]
			if s.hungry {
				continue
			}
			p := fn.pass()
			if loops := m.unpolledLoops(p, fn.decl.Body); len(loops) > 0 {
				s.hungry = true
				s.why = "instance-sized loop without a cancellation path at " + lineOf(fn.pkg.Fset, loops[0].Pos())
				changed = true
				continue
			}
			forEachCall(fn, func(call *ast.CallExpr) {
				if s.hungry {
					return
				}
				callee := m.resolve(fn.pkg, call)
				if callee == nil {
					return
				}
				cs := m.hungry[callee]
				if cs.hungry && !callPassesCancel(p, call) && !m.inPolledLoop(fn, call.Pos()) {
					s.hungry = true
					s.why = "calls " + callee.decl.Name.Name + " (" + lineOf(fn.pkg.Fset, call.Pos()) + "): " + cs.why
					changed = true
				}
			})
		}
	}
	return m.hungry
}

// bodyPollsDirect reports whether the function body contains a poll
// call (cancel.Checker Tick/Err, ctx.Done/Err, or a ctx-forwarding
// call) outside nested function literals.
func bodyPollsDirect(fn *modFunc) bool {
	p := fn.pass()
	found := false
	forEachCall(fn, func(call *ast.CallExpr) {
		if !found && isPollCall(p, call) {
			found = true
		}
	})
	return found
}

// unpolledLoops returns, in source order, the instance-sized work loops
// of one function scope (nested function literals excluded) whose body
// reaches no poll — directly, through module callees, or through an
// enclosing loop of the same scope.
func (m *Module) unpolledLoops(p *Pass, body *ast.BlockStmt) []ast.Node {
	var loops []ast.Node
	var visit func(n ast.Node, enclosingPolled bool)
	visit = func(n ast.Node, enclosingPolled bool) {
		ast.Inspect(n, func(mn ast.Node) bool {
			if mn == n {
				return true
			}
			switch mn.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				polled := enclosingPolled || m.loopReachesPoll(p, mn)
				if !polled && instanceSized(p, mn) && loopDoesWork(p, mn) {
					loops = append(loops, mn)
				}
				visit(loopBody(mn), polled)
				return false
			}
			return true
		})
	}
	visit(body, false)
	return loops
}

// loopReachesPoll reports whether the loop body reaches a poll call,
// looking through module callees that do not take a context themselves
// (their bodies may still hold the poll — e.g. a helper hiding the
// Checker behind a struct field).
func (m *Module) loopReachesPoll(p *Pass, loop ast.Node) bool {
	found := false
	ast.Inspect(loopBody(loop), func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPollCall(p, call) {
			found = true
			return false
		}
		if callee := m.resolve(p.pkg, call); callee != nil && m.hungry[callee] != nil && m.hungry[callee].polls {
			found = true
			return false
		}
		return true
	})
	return found
}

// inPolledLoop reports whether pos sits inside a loop of fn whose body
// reaches a poll.
func (m *Module) inPolledLoop(fn *modFunc, pos token.Pos) bool {
	p := fn.pass()
	polled := false
	ast.Inspect(fn.decl.Body, func(mn ast.Node) bool {
		if polled {
			return false
		}
		switch mn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			if mn.Pos() <= pos && pos < mn.End() && m.loopReachesPoll(p, mn) {
				polled = true
				return false
			}
		}
		return true
	})
	return polled
}

// handlesCancellation reports whether the function scope touches a
// context.Context or cancel.Checker value anywhere (parameters count
// through their uses, receiver fields through selector expressions).
func handlesCancellation(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if t := p.TypeOf(e); t != nil && (isContextType(t) || isCancelChecker(t)) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func isCancelChecker(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == cancelPath && named.Obj().Name() == "Checker"
}

// isPollCall reports whether call is a cancellation poll: a
// cancel.Checker Tick/Err, a context Done/Err read, or a call that
// forwards a context.Context to its callee.
func isPollCall(p *Pass, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
			switch {
			case obj.Pkg().Path() == cancelPath &&
				(obj.Name() == "Tick" || obj.Name() == "Err"):
				return true
			case obj.Pkg().Path() == "context" &&
				(obj.Name() == "Done" || obj.Name() == "Err"):
				return true
			}
		}
	}
	for _, arg := range call.Args {
		if t := p.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// loopBody returns the body block of a for or range statement.
func loopBody(loop ast.Node) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// instanceSized approximates "trip count scales with the instance":
// ranging over a slice, map, channel or non-constant integer, a `for`
// without a condition, or a `for` condition that reads a length, field
// or element (e.g. `len(t.Edges) < e.n-1`).
func instanceSized(p *Pass, loop ast.Node) bool {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		t := p.TypeOf(l.X)
		if t == nil {
			return false
		}
		switch u := t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Chan:
			return true
		case *types.Basic:
			if u.Info()&types.IsInteger != 0 {
				tv, ok := p.Info.Types[l.X]
				return !ok || tv.Value == nil // non-constant bound
			}
		}
		return false
	case *ast.ForStmt:
		if l.Cond == nil {
			return true
		}
		sized := false
		ast.Inspect(l.Cond, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.CallExpr, *ast.SelectorExpr, *ast.IndexExpr:
				sized = true
			}
			return !sized
		})
		return sized
	}
	return false
}

// loopDoesWork reports whether the loop body performs per-iteration
// work worth polling around: a nested loop, or a call into this module
// (same package or any repro/... import). Loops that only shuffle
// locals or call the stdlib finish in microseconds and may stay
// unpolled.
func loopDoesWork(p *Pass, loop ast.Node) bool {
	works := false
	ast.Inspect(loopBody(loop), func(n ast.Node) bool {
		if works {
			return false
		}
		switch m := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			if n != loop {
				works = true
				return false
			}
		case *ast.CallExpr:
			if obj := calleeAny(p, m); obj != nil {
				if obj.Pkg() == p.Pkg ||
					(obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), "repro/")) {
					works = true
					return false
				}
			}
		}
		return true
	})
	return works
}

// calleeAny resolves a call to the object it names — a function,
// method or func-typed variable — or nil for other call shapes.
func calleeAny(p *Pass, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fn]
	case *ast.SelectorExpr:
		return p.Info.Uses[fn.Sel]
	}
	return nil
}
