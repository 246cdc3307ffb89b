package analysis

// waitpair enforces the WaitGroup discipline of the parallel kernels:
// every goroutine launch pairs a wg.Add before the spawn with a
// deferred wg.Done that runs on every exit path of the goroutine body,
// panics included. Missing either half deadlocks the fan-in barrier —
// the failure mode is a hang under -race in CI, or worse, a sweep that
// never returns in production.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// waitPairPackages host goroutine fan-out coordinated by WaitGroups:
// the packages whose non-test code has a go statement (TestAppliesTo
// keeps the list to those).
var waitPairPackages = []string{"repro/internal/geom", "repro/internal/router"}

// WaitPair checks each `go` launch of a function literal:
//
//   - the body must call Done on a sync.WaitGroup (goroutines
//     coordinated some other way need a //lint:ignore with the reason);
//   - at least one Done must be deferred from a block that dominates
//     the body's exit, so a panic mid-body still releases the barrier
//     (a trailing non-deferred Done is reported);
//   - an Add on the same WaitGroup must dominate the go statement in
//     the spawning function — Add after spawn races the Wait.
//
// One diagnostic per go statement, at the spawn site. Goroutines that
// call a named function instead of a literal are not checked (the
// pairing lives in another function's body).
var WaitPair = &Analyzer{
	Name: "waitpair",
	Doc:  "go launches must pair a dominating wg.Add with a deferred wg.Done on every goroutine exit path",
	AppliesTo: func(importPath string) bool {
		return pathIn(importPath, waitPairPackages...)
	},
	Run: runWaitPair,
}

func runWaitPair(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoStmt(p, f, gs, lit)
			return true
		})
	}
}

func checkGoStmt(p *Pass, f *ast.File, gs *ast.GoStmt, lit *ast.FuncLit) {
	dones := waitGroupCalls(p, lit.Body, "Done")
	if len(dones) == 0 {
		p.Reportf(gs.Pos(),
			"goroutine body never calls wg.Done: the spawner's Wait will hang (channel-coordinated goroutines need a //lint:ignore waitpair with a reason)")
		return
	}

	// Panic safety: some Done on the (first) WaitGroup must be
	// registered by a defer whose block dominates the body's exit.
	wgObj := dones[0].obj
	g := buildCFG(lit.Body)
	idom := g.dominators()
	safe := false
	for _, d := range dones {
		if d.obj != wgObj || !d.deferred {
			continue
		}
		if blk := g.blockOf(d.pos); blk != nil && idom[blk.index] != nil &&
			dominates(idom, blk, g.exit) {
			safe = true
			break
		}
	}
	if !safe {
		p.Reportf(gs.Pos(),
			"wg.Done is not unconditionally deferred in the goroutine body: a panic (or an early return path) leaks the WaitGroup and hangs Wait")
		return
	}

	// Pairing: an Add on the same WaitGroup must dominate the spawn in
	// the enclosing function.
	fn := enclosingFuncNode(f, gs.Pos())
	body := funcBody(fn)
	if body == nil {
		return
	}
	outer := buildCFG(body)
	outerIdom := outer.dominators()
	goBlk := outer.blockOf(gs.Pos())
	if goBlk == nil || outerIdom[goBlk.index] == nil {
		return
	}
	for _, a := range waitGroupCalls(p, body, "Add") {
		if a.obj != wgObj {
			continue
		}
		blk := outer.blockOf(a.pos)
		if blk == nil {
			continue
		}
		if blk == goBlk && a.pos < gs.Pos() {
			return // same block, Add textually first
		}
		if blk != goBlk && dominates(outerIdom, blk, goBlk) {
			return
		}
	}
	p.Reportf(gs.Pos(),
		"no wg.Add dominating this go statement: Add must happen-before the spawn or Wait can return early")
}

// wgCall is one WaitGroup method call site.
type wgCall struct {
	obj      types.Object // the WaitGroup variable's object
	pos      token.Pos
	deferred bool
}

// waitGroupCalls finds calls of the named method (Done or Add) on
// sync.WaitGroup values inside body, ignoring nested function literals
// other than body's own statements.
func waitGroupCalls(p *Pass, body *ast.BlockStmt, method string) []wgCall {
	var out []wgCall
	// A deferred call is anchored at the DeferStmt keyword, not the
	// call: the CFG's defer-chain blocks reuse the call node, so the
	// call position would resolve to the chain (which sits on every
	// exit path by construction) instead of the registering block.
	record := func(call *ast.CallExpr, pos token.Pos, deferred bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return
		}
		if !isWaitGroup(p.TypeOf(sel.X)) {
			return
		}
		if obj := rootObject(p, sel.X); obj != nil {
			out = append(out, wgCall{obj: obj, pos: pos, deferred: deferred})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false
			}
		case *ast.DeferStmt:
			record(n.Call, n.Pos(), true)
			return false
		case *ast.CallExpr:
			record(n, n.Pos(), false)
		}
		return true
	})
	return out
}

// isWaitGroup reports whether t is sync.WaitGroup or a pointer to it.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
