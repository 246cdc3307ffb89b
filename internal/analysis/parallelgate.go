package analysis

// parallelgate enforces the GOMAXPROCS contract of the parallel
// kernels (PR 4): goroutine fan-out must be gated on an available
// worker count, with a serial path that produces byte-identical output
// when the gate says no. An ungated `go` statement means the "serial
// fallback" the conformance suite pins can silently stop being
// exercised — and a single-core host pays goroutine overhead for
// nothing.

import (
	"go/ast"
	"go/token"
	"strings"
)

// parallelGatePackages host the parallel construction kernels: the
// packages whose non-test code has a go statement and a serial twin
// (TestAppliesTo keeps the list to those).
var parallelGatePackages = []string{"repro/internal/geom"}

// ParallelGate requires every `go` statement to be dominated by a
// worker-count gate with a reachable serial fallback. Accepted shapes,
// checked on the enclosing function's CFG:
//
//   - a dominating branch whose condition reads a worker count — a
//     runtime.GOMAXPROCS call, a call to a function whose name
//     mentions workers, or an identifier named like one (w, workers,
//     depth, anything containing "worker"/"parallel") — and whose
//     other arm can reach the function exit without passing the `go`
//     statement (that arm is the serial path);
//   - for an unexported function with no gate of its own: every
//     package-local call site is itself dominated by such a gate in
//     its caller (the geom fillParallel shape). One caller level only;
//     exported ungated spawns are always reported because outside
//     callers cannot be checked.
var ParallelGate = &Analyzer{
	Name: "parallelgate",
	Doc:  "every go statement needs a dominating worker-count gate with a reachable serial fallback",
	AppliesTo: func(importPath string) bool {
		return pathIn(importPath, parallelGatePackages...)
	},
	Run: runParallelGate,
}

func runParallelGate(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fn := enclosingFuncNode(f, gs.Pos())
			if fn == nil {
				return true
			}
			if gatedAt(p, funcBody(fn), gs.Pos()) {
				return true
			}
			if callersAllGated(p, fn) {
				return true
			}
			p.Reportf(gs.Pos(),
				"ungated go statement: dominate the spawn with a worker-count check that has a serial fallback (or gate every package-local caller)")
			return true
		})
	}
}

// gatedAt reports whether the position (a go statement or a call site)
// inside body is dominated by a worker-count branch one of whose arms
// bypasses the spawn entirely: that arm cannot reach the position's
// block at all, yet still reaches the function exit. Merely having a
// path around the spawn is not enough — the zero-trip exit edge of
// `for g := 0; g < w; g++ { go ... }` reaches the exit without spawning
// but is no serial fallback, because with w >= 1 the pool always runs.
func gatedAt(p *Pass, body *ast.BlockStmt, pos token.Pos) bool {
	g := buildCFG(body)
	blk := g.blockOf(pos)
	if blk == nil {
		return false
	}
	idom := g.dominators()
	if idom[blk.index] == nil {
		return false // unreachable; nothing to prove
	}
	avoid := func(b *cfgBlock) bool { return b == blk }
	for dom := idom[blk.index]; ; dom = idom[dom.index] {
		// A loop head is never the gate, even though its exit edge
		// bypasses the body: `for g := 0; g < w; g++ { go ... }` only
		// skips the spawn when w == 0. Only an if/switch branch counts.
		if dom.kind != "for.head" && dom.kind != "range.head" &&
			len(dom.succs) >= 2 && len(dom.nodes) > 0 {
			if cond, ok := dom.nodes[len(dom.nodes)-1].(ast.Expr); ok && workerGateCond(p, cond) {
				for _, s := range dom.succs {
					if s != blk && !g.canReach(s, blk, nil) && g.canReach(s, g.exit, avoid) {
						return true
					}
				}
			}
		}
		if dom == idom[dom.index] {
			return false // reached entry
		}
	}
}

// callersAllGated implements the helper-function escape hatch: the
// enclosing function is an unexported declaration, it has at least one
// call site in its package, and every such site is dominated by a
// worker gate in its own function (declaration or literal). Recursive
// helpers may call themselves from inside the gated region they
// establish; gatedAt decides that self-call like any other.
func callersAllGated(p *Pass, fn ast.Node) bool {
	fd, ok := fn.(*ast.FuncDecl)
	if !ok || fd.Name.IsExported() {
		return false
	}
	m := p.module()
	target := m.byObj[p.Info.Defs[fd.Name]]
	if target == nil {
		return false
	}
	sites := 0
	var gated func(body *ast.BlockStmt) bool
	gated = func(body *ast.BlockStmt) bool {
		all := true
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				all = all && gated(n.Body)
				return false
			case *ast.CallExpr:
				if m.resolve(p.pkg, n) == target {
					sites++
					all = all && gatedAt(p, body, n.Pos())
				}
			}
			return all
		})
		return all
	}
	for _, caller := range m.order {
		if caller.pkg == p.pkg && !gated(caller.decl.Body) {
			return false
		}
	}
	return sites > 0
}

// workerGateCond reports whether the branch condition reads a worker
// count: a runtime.GOMAXPROCS call, a call to a *workers* function, or
// an identifier named like a worker count or parallel threshold.
func workerGateCond(p *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPkgFunc(p, n.Fun, "runtime", "GOMAXPROCS") {
				found = true
			}
		case *ast.Ident:
			if workerishName(n.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if workerishName(n.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

func workerishName(name string) bool {
	switch name {
	case "w", "nw", "workers", "nworkers", "depth":
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "worker") || strings.Contains(lower, "parallel")
}

// enclosingFuncNode returns the innermost function declaration or
// literal in file f that contains pos, or nil.
func enclosingFuncNode(f *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n // innermost wins: Inspect visits outer first
			}
		}
		return true
	})
	return best
}

func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}
