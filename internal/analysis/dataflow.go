package analysis

// dataflow.go computes def-use chains (SSA-lite) for one function body
// on top of the cfg.go control-flow graph: a classic iterative
// reaching-definitions analysis over basic blocks, with per-variable
// gen/kill sets and union at joins. The result answers "which
// definitions of x can reach this use", which is what the taint engine
// (taint.go) needs to propagate nondeterminism flow-sensitively — in
// particular, a sort.* call over a slice acts as a *clean redefinition*
// that kills upstream order taint exactly on the paths that pass
// through it.
//
// Scope and known imprecision, by design:
//
//   - only function-scope variables (parameters, named results, locals,
//     range/select bindings) are tracked; package globals and fields of
//     non-local values are out of scope — the taint layer treats reads
//     of untracked objects as clean and writes to them as sinks to
//     check, not state to track;
//   - a write through a selector or index (x.f = v, x[i] = v) is a
//     *weak* definition of the root variable x: it generates a def but
//     kills nothing, since the rest of x survives;
//   - function literals are opaque, matching cfg.go: a FuncLit body
//     neither defines nor kills outer variables here.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// dfKind classifies one definition site.
type dfKind uint8

const (
	dfParam    dfKind = iota // parameter or named result (entry def)
	dfAssign                 // x = e, x := e, x op= e, x++/x--
	dfWeak                   // x.f = e, x[i] = e: weak update of x
	dfRangeKey               // k in `for k, v := range X`
	dfRangeVal               // v in `for k, v := range X`
	dfRecv                   // v := <-ch inside a select comm clause
	dfSanitize               // x passed to sort.*/slices.Sort*: clean redefinition
)

// dfDef is one definition of one variable.
type dfDef struct {
	index int
	obj   types.Object
	kind  dfKind
	node  ast.Node // defining node: AssignStmt, ValueSpec, RangeStmt, CallExpr (sanitize), Field (param)
	rhs   ast.Expr // defining expression when there is exactly one, else nil
	pos   token.Pos
	block *cfgBlock // block the def executes in; nil for entry defs
}

// defUse is the reaching-definitions result for one function body.
type defUse struct {
	cfg   *funcCFG
	defs  []*dfDef
	byObj map[types.Object][]*dfDef
	// in[b] holds the def bitset reaching block b's entry.
	in []bitset
	// rangeOf maps a RangeStmt to its head block, for order-taint scoping.
	body *ast.BlockStmt
}

// bitset is a dense def-index set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) orInto(src bitset) bool {
	changed := false
	for i := range b {
		if v := b[i] | src[i]; v != b[i] {
			b[i] = v
			changed = true
		}
	}
	return changed
}

func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// buildDefUse runs reaching definitions over one function body. sig
// carries the parameter and named-result objects (entry definitions);
// it may be nil for function literals whose parameters the caller
// collects separately.
func buildDefUse(p *Pass, body *ast.BlockStmt, paramObjs []types.Object) *defUse {
	g := buildCFG(body)
	du := &defUse{cfg: g, byObj: map[types.Object][]*dfDef{}, body: body}

	addDef := func(obj types.Object, kind dfKind, node ast.Node, rhs ast.Expr, pos token.Pos, blk *cfgBlock) *dfDef {
		if obj == nil || !isFuncLocal(obj, body, paramObjs) {
			return nil
		}
		d := &dfDef{index: len(du.defs), obj: obj, kind: kind, node: node, rhs: rhs, pos: pos, block: blk}
		du.defs = append(du.defs, d)
		du.byObj[obj] = append(du.byObj[obj], d)
		return d
	}

	for _, obj := range paramObjs {
		addDef(obj, dfParam, nil, nil, token.NoPos, nil)
	}

	// Collect block-resident definitions in source order. Each block's
	// nodes were appended in execution order by the CFG builder, and
	// within one statement subtree Inspect visits in source order.
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			collectDefs(p, n, blk, addDef)
		}
	}
	// Range bindings live conceptually in the range head block (they are
	// (re)assigned once per iteration). The head holds the ranged
	// expression as its node; find the RangeStmt by walking the body.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		blk := g.blockOf(rs.X.Pos())
		if blk == nil {
			return true
		}
		if rs.Tok == token.DEFINE || rs.Tok == token.ASSIGN {
			if id, ok := rs.Key.(*ast.Ident); ok {
				addDef(p.Info.ObjectOf(id), dfRangeKey, rs, nil, rs.X.Pos(), blk)
			}
			if id, ok := rs.Value.(*ast.Ident); ok {
				addDef(p.Info.ObjectOf(id), dfRangeVal, rs, nil, rs.X.Pos(), blk)
			}
		}
		return true
	})

	du.solve()
	return du
}

// collectDefs finds the definitions inside one CFG node subtree,
// skipping nested function literals.
func collectDefs(p *Pass, n ast.Node, blk *cfgBlock, addDef func(types.Object, dfKind, ast.Node, ast.Expr, token.Pos, *cfgBlock) *dfDef) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				var rhs ast.Expr
				if len(m.Rhs) == len(m.Lhs) {
					rhs = m.Rhs[i]
				} else if len(m.Rhs) == 1 {
					rhs = m.Rhs[0] // multi-value call/comma-ok: shared RHS
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					addDef(p.Info.ObjectOf(l), dfAssign, m, rhs, m.Pos(), blk)
				default:
					if obj := rootObject(p, lhs); obj != nil {
						addDef(obj, dfWeak, m, rhs, m.Pos(), blk)
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(m.X).(*ast.Ident); ok {
				addDef(p.Info.ObjectOf(id), dfAssign, m, m.X, m.Pos(), blk)
			}
		case *ast.ValueSpec:
			for i, name := range m.Names {
				var rhs ast.Expr
				if i < len(m.Values) {
					rhs = m.Values[i]
				}
				addDef(p.Info.ObjectOf(name), dfAssign, m, rhs, m.Pos(), blk)
			}
		case *ast.CallExpr:
			// sort.X(s) / slices.SortX(s): clean redefinition of s.
			if isSortCall(p, m) {
				for _, arg := range m.Args {
					if obj := rootObject(p, arg); obj != nil {
						addDef(obj, dfSanitize, m, nil, m.Pos(), blk)
					}
				}
			}
		}
		return true
	})
}

// rootObject resolves e to the object of its leftmost identifier:
// x -> x, x.f -> x, x[i] -> x, *x -> x.
func rootObject(p *Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return p.Info.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isSortCall reports whether call invokes the sort or slices package
// (the approved ordering sinks that make map-derived sequences
// deterministic again).
func isSortCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	pkg := obj.Pkg().Path()
	return pkg == "sort" || pkg == "slices"
}

// isFuncLocal reports whether obj is a variable scoped to this function
// body (or one of its parameters/results).
func isFuncLocal(obj types.Object, body *ast.BlockStmt, paramObjs []types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	if body.Pos() <= obj.Pos() && obj.Pos() < body.End() {
		return true
	}
	for _, po := range paramObjs {
		if po == obj {
			return true
		}
	}
	return false
}

// solve runs the iterative reaching-definitions fixed point.
func (du *defUse) solve() {
	nd := len(du.defs)
	nb := len(du.cfg.blocks)
	du.in = make([]bitset, nb)
	out := make([]bitset, nb)
	gen := make([]bitset, nb)
	kill := make([]bitset, nb)
	for i := 0; i < nb; i++ {
		du.in[i] = newBitset(nd)
		out[i] = newBitset(nd)
		gen[i] = newBitset(nd)
		kill[i] = newBitset(nd)
	}

	// kill per block: a strong def (anything but a weak field/index
	// update) kills every other def of the same object. A sanitize def
	// kills too — it replaces the value with a sorted permutation, which
	// is the point of modeling it as a definition.
	for _, d := range du.defs {
		if d.block == nil {
			continue
		}
		if d.kind != dfWeak {
			for _, other := range du.byObj[d.obj] {
				if other != d {
					kill[d.block.index].set(other.index)
				}
			}
		}
	}
	// gen per block: the defs still live at block exit — the last strong
	// def of each object plus any weak defs after it.
	byBlock := make([][]*dfDef, nb)
	for _, d := range du.defs {
		if d.block != nil {
			byBlock[d.block.index] = append(byBlock[d.block.index], d)
		}
	}
	for bi, ds := range byBlock {
		// ds is in collection order == execution order within the block.
		live := map[types.Object][]*dfDef{}
		for _, d := range ds {
			if d.kind != dfWeak {
				live[d.obj] = live[d.obj][:0]
			}
			live[d.obj] = append(live[d.obj], d)
		}
		for _, ds := range live {
			for _, d := range ds {
				gen[bi].set(d.index)
			}
		}
	}

	// Entry defs (parameters) reach the entry block.
	entry := du.cfg.entry.index
	for _, d := range du.defs {
		if d.block == nil {
			du.in[entry].set(d.index)
		}
	}

	for changed := true; changed; {
		changed = false
		for bi := 0; bi < nb; bi++ {
			blk := du.cfg.blocks[bi]
			for _, p := range blk.preds {
				if du.in[bi].orInto(out[p.index]) {
					changed = true
				}
			}
			// out = gen ∪ (in − kill)
			for w := range out[bi] {
				nv := gen[bi][w] | (du.in[bi][w] &^ kill[bi][w])
				if nv != out[bi][w] {
					out[bi][w] = nv
					changed = true
				}
			}
		}
	}
}

// reachingAt returns the definitions of obj that can reach the program
// point at pos. Defs in the same block count when they precede pos;
// defs flowing in from predecessors count unless a strong same-block
// def before pos kills them.
func (du *defUse) reachingAt(obj types.Object, pos token.Pos) []*dfDef {
	defs := du.byObj[obj]
	if len(defs) == 0 {
		return nil
	}
	blk := du.cfg.blockOf(pos)
	if blk == nil {
		// Position outside any block (e.g. inside an opaque nested
		// literal): be conservative, all defs reach.
		return defs
	}
	reach := du.in[blk.index].clone()
	for _, d := range du.defs {
		if d.block != blk || d.pos >= pos {
			continue
		}
		if d.kind != dfWeak {
			for _, other := range du.byObj[d.obj] {
				if other != d {
					reach[other.index/64] &^= 1 << (other.index % 64)
				}
			}
		}
		reach.set(d.index)
	}
	var out []*dfDef
	for _, d := range defs {
		if reach.has(d.index) {
			out = append(out, d)
		}
	}
	return out
}

// paramObjects extracts the parameter, receiver and named-result
// objects of a function declaration or literal.
func paramObjects(p *Pass, fn ast.Node) []types.Object {
	var fields []*ast.Field
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		if fn.Recv != nil {
			fields = append(fields, fn.Recv.List...)
		}
		fields = append(fields, fn.Type.Params.List...)
		if fn.Type.Results != nil {
			fields = append(fields, fn.Type.Results.List...)
		}
	case *ast.FuncLit:
		fields = append(fields, fn.Type.Params.List...)
		if fn.Type.Results != nil {
			fields = append(fields, fn.Type.Results.List...)
		}
	}
	var out []types.Object
	for _, f := range fields {
		for _, name := range f.Names {
			if obj := p.Info.ObjectOf(name); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}
