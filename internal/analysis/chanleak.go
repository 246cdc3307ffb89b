package analysis

// chanleak is the static complement to waitpair/lockorder for the
// worker-pool idiom: a spawned goroutine whose only way to finish is a
// channel operation must have that operation provably paired in the
// spawner — a close or receive for its sends, a send or close for its
// receives — on every ordinary path from the spawn to the spawner's
// exit. Otherwise an early return between the spawn and the pairing op
// parks the goroutine forever (the router pool's `close(jobs)` after the
// feed loop is the canonical pairing).
//
// Definitions:
//
//   - A literal is *obligated* on channel ch when every ordinary
//     entry→exit path through its body passes a blocking op on ch
//     (send, receive, or range; close does not block). A select with a
//     default or a cancellation case is therefore never obligated — the
//     goroutine has a channel-free exit.
//   - Ordinary paths exclude the CFG's pessimistic panic edges: a
//     panicking worker kills the process, so unreached pairings on
//     panic paths are not leaks.
//   - Only channels created in the spawning function are checked; a
//     channel that escapes (param, field, aliased, passed to a call
//     outside the module) has invisible users and is exempt. Calls
//     that resolve inside the module count as pairing sites when the
//     callee's summary performs a pairing op on that parameter,
//     module-wide.
//   - Buffered channels stay obligated: a send blocks once the buffer
//     fills, and a receive blocks on an empty buffer regardless.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanLeak reports spawned goroutines that can only exit through a
// channel op with no pairing close/receive/send on every spawner path.
var ChanLeak = &Analyzer{
	Name: "chanleak",
	Doc:  "a goroutine that can only exit via channel ops needs a pairing close/receive reachable on every spawner path",
	Run:  runChanLeak,
}

// chanOpSummary records, per declared parameter position, whether a
// call to the function performs each channel-op kind on that parameter
// (directly, inside its literals, or transitively through module
// callees).
type chanOpSummary struct {
	sends, recvs, closes []bool
}

func runChanLeak(p *Pass) {
	m := p.module()
	sums := m.chanOpSummaries()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkChanBody(p, m, sums, fd.Body)
		}
	}
}

// checkChanBody checks every `go func(...){...}(...)` spawned directly
// in body, then recurses into nested literals (each is the spawner of
// its own go statements).
func checkChanBody(p *Pass, m *Module, sums map[*modFunc]*chanOpSummary, body *ast.BlockStmt) {
	var spawns []*ast.GoStmt
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if _, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				spawns = append(spawns, n)
			}
			return true
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		}
		return true
	})
	if len(spawns) > 0 {
		cfg := buildCFG(body)
		for _, g := range spawns {
			checkSpawn(p, m, sums, body, cfg, g)
		}
	}
	for _, lit := range lits {
		checkChanBody(p, m, sums, lit.Body)
	}
}

// chanOpKind is one channel operation occurrence.
type chanOpKind uint8

const (
	opSend chanOpKind = iota
	opRecv            // receive or range
	opClose
)

type chanOp struct {
	obj  types.Object
	kind chanOpKind
	node ast.Node
}

// chanOpsIn collects channel ops in the region, optionally descending
// into nested function literals.
func chanOpsIn(p *Pass, n ast.Node, intoLits bool) []chanOp {
	var out []chanOp
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return intoLits
		case *ast.SendStmt:
			if obj := identObj(p, m.Chan); obj != nil {
				out = append(out, chanOp{obj, opSend, m})
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				if obj := identObj(p, m.X); obj != nil {
					out = append(out, chanOp{obj, opRecv, m})
				}
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(m.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if obj := identObj(p, m.X); obj != nil {
						out = append(out, chanOp{obj, opRecv, m.X})
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "close" && len(m.Args) == 1 {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					if obj := identObj(p, m.Args[0]); obj != nil {
						out = append(out, chanOp{obj, opClose, m})
					}
				}
			}
		}
		return true
	})
	return out
}

// checkSpawn checks one go statement whose callee is a literal.
func checkSpawn(p *Pass, m *Module, sums map[*modFunc]*chanOpSummary, spawnerBody *ast.BlockStmt, spawnerCFG *funcCFG, g *ast.GoStmt) {
	lit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	// Blocking ops the goroutine itself performs (its nested literals
	// are their own goroutines/closures, not this one's exits).
	var byObj map[types.Object][]chanOp
	for _, op := range chanOpsIn(p, lit.Body, false) {
		if op.kind == opClose {
			continue // close never blocks: not an exit dependency
		}
		if byObj == nil {
			byObj = map[types.Object][]chanOp{}
		}
		byObj[op.obj] = append(byObj[op.obj], op)
	}
	if len(byObj) == 0 {
		return
	}
	litCFG := buildCFG(lit.Body)
	for obj, ops := range byObj {
		if !localChan(p, obj, spawnerBody) || chanEscapes(p, m, obj, spawnerBody) {
			continue
		}
		// Obligation: no ordinary entry→exit path avoids every op.
		opBlocks := map[*cfgBlock]bool{}
		for _, op := range ops {
			if blk := litCFG.blockOf(op.node.Pos()); blk != nil {
				opBlocks[blk] = true
			}
		}
		if len(opBlocks) == 0 {
			continue
		}
		if reachOrdinary(litCFG, litCFG.entry, litCFG.exit, func(b *cfgBlock) bool { return opBlocks[b] }) {
			continue // channel-free exit exists: not obligated
		}
		wantSend := false
		for _, op := range ops {
			if op.kind == opSend {
				wantSend = true
			}
		}
		// Pairing: every ordinary spawn→exit path in the spawner passes
		// an op that releases the goroutine.
		pairBlocks := pairingBlocks(p, m, sums, spawnerBody, spawnerCFG, obj, wantSend, lit)
		spawnBlk := spawnerCFG.blockOf(g.Pos())
		if spawnBlk == nil {
			continue
		}
		if reachOrdinary(spawnerCFG, spawnBlk, spawnerCFG.exit, func(b *cfgBlock) bool { return pairBlocks[b] }) {
			need := "receive or close"
			if !wantSend {
				need = "send or close"
			}
			p.Reportf(g.Pos(), "goroutine can only exit via ops on %s, but no pairing %s is reachable on every spawner path",
				obj.Name(), need)
		}
	}
}

// pairingBlocks collects the spawner blocks whose ops release the
// goroutine's blocking ops on obj: receives/ranges (and close, which
// ends a range) for its sends, sends/closes for its receives. Ops
// inside other literals do not count — another goroutine's op carries
// no ordering guarantee — except the checked literal itself, which is
// skipped entirely. Module-resolved calls passing obj count when the
// callee's summary pairs it.
func pairingBlocks(p *Pass, m *Module, sums map[*modFunc]*chanOpSummary, body *ast.BlockStmt, cfg *funcCFG, obj types.Object, wantSend bool, skip *ast.FuncLit) map[*cfgBlock]bool {
	out := map[*cfgBlock]bool{}
	mark := func(n ast.Node) {
		if blk := cfg.blockOf(n.Pos()); blk != nil {
			out[blk] = true
		}
	}
	pairs := func(kind chanOpKind) bool {
		if wantSend {
			return kind == opRecv || kind == opClose
		}
		return kind == opSend || kind == opClose
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if identObj(p, n.Chan) == obj && pairs(opSend) {
				mark(n)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && identObj(p, n.X) == obj && pairs(opRecv) {
				mark(n)
			}
		case *ast.RangeStmt:
			if identObj(p, n.X) == obj && pairs(opRecv) {
				mark(n.X)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					if identObj(p, n.Args[0]) == obj && pairs(opClose) {
						mark(n)
					}
					return true
				}
			}
			// Module callee given the channel: consult its summary.
			if callee := m.resolve(p.pkg, n); callee != nil {
				if sum := sums[callee]; sum != nil {
					for i, arg := range n.Args {
						if identObj(p, arg) != obj || i >= len(sum.sends) {
							continue
						}
						if (pairs(opRecv) && sum.recvs[i]) ||
							(pairs(opSend) && sum.sends[i]) ||
							(pairs(opClose) && sum.closes[i]) {
							mark(n)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// localChan reports whether obj is a channel-typed variable declared in
// the spawning function (not a parameter, field, or global).
func localChan(p *Pass, obj types.Object, body *ast.BlockStmt) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if _, isChan := v.Type().Underlying().(*types.Chan); !isChan {
		return false
	}
	return v.Pos() >= body.Pos() && v.Pos() < body.End()
}

// chanEscapes reports whether the channel has users the analysis cannot
// see: aliased to another variable, stored into a structure, returned,
// sent somewhere, or passed to a call that does not resolve in the
// module.
func chanEscapes(p *Pass, m *Module, obj types.Object, body *ast.BlockStmt) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if identObj(p, rhs) != obj {
					continue
				}
				// The defining `ch := make(...)` has the object on the
				// left, never the right; any rhs use aliases it.
				_ = i
				escapes = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if identObj(p, e) == obj {
					escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if identObj(p, r) == obj {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if identObj(p, n.Value) == obj {
				escapes = true
			}
		case *ast.CallExpr:
			id, isIdent := ast.Unparen(n.Fun).(*ast.Ident)
			if isIdent {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true // close/len/cap are fine
				}
			}
			for _, arg := range n.Args {
				if identObj(p, arg) == obj && m.resolve(p.pkg, n) == nil {
					escapes = true
				}
			}
		}
		return true
	})
	return escapes
}

// reachOrdinary is canReach restricted to ordinary control flow: the
// pessimistic panic edges into the defer chain (any non-return,
// non-defer block → a defer block) are skipped, because a panicking
// goroutine terminates the process and cannot leak.
func reachOrdinary(g *funcCFG, from, to *cfgBlock, avoid func(*cfgBlock) bool) bool {
	if avoid(from) {
		return false
	}
	seen := make([]bool, len(g.blocks))
	stack := []*cfgBlock{from}
	seen[from.index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == to {
			return true
		}
		for _, s := range blk.succs {
			if s.kind == "defer" && blk.kind != "return" && blk.kind != "defer" {
				continue // panic edge
			}
			if seen[s.index] || avoid(s) {
				continue
			}
			seen[s.index] = true
			stack = append(stack, s)
		}
	}
	return false
}

// chanOpSummaries computes the module-wide channel-op summaries by
// monotone fixed point: bits only move false→true, so iteration to a
// full quiet round reaches the least fixed point.
func (m *Module) chanOpSummaries() map[*modFunc]*chanOpSummary {
	if m.chanops != nil {
		return m.chanops
	}
	m.chanops = make(map[*modFunc]*chanOpSummary, len(m.order))
	for _, fn := range m.order {
		np := len(declParams(fn))
		m.chanops[fn] = &chanOpSummary{
			sends:  make([]bool, np),
			recvs:  make([]bool, np),
			closes: make([]bool, np),
		}
	}
	// Direct ops on parameters, literals included: ops a call sets in
	// motion count for pairing even when a nested literal performs them.
	for _, fn := range m.order {
		sum := m.chanops[fn]
		params := declParams(fn)
		idx := map[types.Object]int{}
		for i, obj := range params {
			if obj != nil {
				idx[obj] = i
			}
		}
		for _, op := range chanOpsIn(fn.pass(), fn.decl.Body, true) {
			i, ok := idx[op.obj]
			if !ok {
				continue
			}
			switch op.kind {
			case opSend:
				sum.sends[i] = true
			case opRecv:
				sum.recvs[i] = true
			case opClose:
				sum.closes[i] = true
			}
		}
	}
	// Transitive: params forwarded to module callees.
	for changed := true; changed; {
		changed = false
		for _, fn := range m.order {
			sum := m.chanops[fn]
			params := declParams(fn)
			idx := map[types.Object]int{}
			for i, obj := range params {
				if obj != nil {
					idx[obj] = i
				}
			}
			p := fn.pass()
			forEachCall(fn, func(call *ast.CallExpr) {
				callee := m.resolve(fn.pkg, call)
				if callee == nil {
					return
				}
				csum := m.chanops[callee]
				for ai, arg := range call.Args {
					pi, ok := idx[identObj(p, arg)]
					if !ok || ai >= len(csum.sends) {
						continue
					}
					if csum.sends[ai] && !sum.sends[pi] {
						sum.sends[pi], changed = true, true
					}
					if csum.recvs[ai] && !sum.recvs[pi] {
						sum.recvs[pi], changed = true, true
					}
					if csum.closes[ai] && !sum.closes[pi] {
						sum.closes[pi], changed = true, true
					}
				}
			})
		}
	}
	return m.chanops
}

// identObj returns the object a (parenthesized) identifier denotes, or
// nil for any other expression.
func identObj(p *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// declParams returns the declared parameters of fn in position order.
// An unnamed parameter gets a throwaway object of its own, so a
// position still indexes the right slot of a per-parameter summary.
func declParams(fn *modFunc) []types.Object {
	p := fn.pass()
	var out []types.Object
	for _, field := range fn.decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, types.NewVar(fn.decl.Pos(), nil, "_", types.Typ[types.Int]))
			continue
		}
		for _, name := range field.Names {
			out = append(out, p.Info.Defs[name])
		}
	}
	return out
}
