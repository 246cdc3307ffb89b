package analysis

// sharedwrite polices the data-sharing discipline of the parallel
// kernels: worker goroutines may write only to index-disjoint slots of
// a shared slice (each worker owns the indices derived from its worker
// id or job index), or must funnel results through a channel or hold a
// mutex. Anything else is a data race that -race only catches when the
// schedule cooperates.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite flags writes from a goroutine body to variables captured
// from the enclosing function:
//
//   - an element write to a captured map (maps are never safe for
//     concurrent mutation) unless the body holds a mutex;
//   - an element write to a captured slice whose index involves no
//     goroutine-local variable — a constant or outer-scope index means
//     every worker hits the same slot;
//   - a direct write (assignment, ++/--, compound assign) to a captured
//     scalar, struct field, or pointer target, unless the body holds a
//     mutex;
//   - capture of a loop variable of an enclosing for/range loop — the
//     classic pre-Go-1.22-semantics bug shape; even with per-iteration
//     variables, passing the value as an argument keeps per-worker
//     identity explicit and is the idiom this repo pins in tests.
//
// A goroutine body is the function literal of a go statement, or a
// function literal passed to a module function that runs that
// parameter on another goroutine (geom.fanOut's work): the module's
// spawn summaries, below, name those parameters.
//
// Channel sends need no special case: they are synchronization.
// Index-disjointness is approximated syntactically (any goroutine-local
// identifier in the index expression passes); cross-worker index
// collisions are out of scope for an intraprocedural checker.
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc:  "goroutine writes to captured state must be index-disjoint, channel-funneled, or mutex-guarded",
	Run:  runSharedWrite,
}

func runSharedWrite(p *Pass) {
	mod := p.module()
	mod.spawnSummaries()
	for _, f := range p.Files {
		var loops []ast.Node
		var visit func(n ast.Node)
		visit = func(n ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				switch m := m.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops = append(loops, m)
					visit(loopBody(m))
					loops = loops[:len(loops)-1]
					return false
				case *ast.GoStmt:
					if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
						checkGoroutineWrites(p, m.Pos(), lit, loops)
					}
				case *ast.CallExpr:
					mod.eachSpawnedArg(p.pkg, m, func(arg ast.Expr) {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							checkGoroutineWrites(p, m.Pos(), lit, loops)
						}
					})
				}
				return true
			})
		}
		visit(f)
	}
}

// checkGoroutineWrites reports unsafe writes in one goroutine body.
// loops are the for/range statements enclosing the go statement (or
// the spawning call) at pos, whose loop variables must not be captured.
func checkGoroutineWrites(p *Pass, pos token.Pos, lit *ast.FuncLit, loops []ast.Node) {
	loopVars := loopVarObjects(p, loops)
	if obj := capturedLoopVar(p, lit, loopVars); obj != nil {
		p.Reportf(pos,
			"goroutine captures loop variable %s: pass it as an argument so per-worker identity is explicit", obj.Name())
	}
	guarded := holdsMutex(p, lit.Body)
	report := func(pos token.Pos, format string, args ...any) {
		if !guarded {
			p.Reportf(pos, format, args...)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkWriteTarget(p, lit, loopVars, lhs, report)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(p, lit, loopVars, n.X, report)
		}
		return true
	})
}

// spawnSummaries computes, per module function, the parameters it runs
// on another goroutine (bit k: the k'th declared parameter, receiver
// excluded): ones it calls in a go statement — go f(…), or inside a
// go'd function literal — or passes on to a spawned parameter of a
// module callee, by name or called inside a function literal passed
// there. Bits only grow, so the fixed point terminates.
func (m *Module) spawnSummaries() map[*modFunc]uint64 {
	if m.spawns != nil {
		return m.spawns
	}
	m.spawns = map[*modFunc]uint64{}
	for changed := true; changed; {
		changed = false
		for _, fn := range m.order {
			if bits := m.spawnedParams(fn); bits != m.spawns[fn] {
				m.spawns[fn] = bits
				changed = true
			}
		}
	}
	return m.spawns
}

// spawnedParams derives fn's spawn bits from its body and its callees'
// current bits.
func (m *Module) spawnedParams(fn *modFunc) uint64 {
	p := fn.pass()
	index := map[types.Object]uint{}
	k := uint(0)
	for _, f := range fn.decl.Type.Params.List {
		isFunc := false
		if t := p.TypeOf(f.Type); t != nil {
			_, isFunc = t.Underlying().(*types.Signature)
		}
		for _, name := range f.Names {
			if obj := p.Info.Defs[name]; obj != nil && isFunc && k < 64 {
				index[obj] = k
			}
			k++
		}
		if len(f.Names) == 0 {
			k++
		}
	}
	if len(index) == 0 {
		return 0
	}
	param := func(e ast.Expr) uint64 {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if k, ok := index[p.Info.Uses[id]]; ok {
				return 1 << k
			}
		}
		return 0
	}
	// runs is the set of parameters that running e runs: e names one,
	// or e is a literal that calls one.
	runs := func(e ast.Expr) uint64 {
		lit, ok := ast.Unparen(e).(*ast.FuncLit)
		if !ok {
			return param(e)
		}
		var bits uint64
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				bits |= param(call.Fun)
			}
			return true
		})
		return bits
	}
	var bits uint64
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			bits |= runs(n.Call.Fun)
		case *ast.CallExpr:
			m.eachSpawnedArg(fn.pkg, n, func(arg ast.Expr) { bits |= runs(arg) })
		}
		return true
	})
	return bits
}

// eachSpawnedArg calls f on every argument of call that its module
// callee runs on another goroutine, by the current spawn summaries.
func (m *Module) eachSpawnedArg(pkg *Package, call *ast.CallExpr, f func(arg ast.Expr)) {
	if pkg == nil {
		return
	}
	callee := m.resolve(pkg, call)
	if callee == nil {
		return
	}
	bits := m.spawns[callee]
	for k, arg := range call.Args {
		if k < 64 && bits&(1<<k) != 0 {
			f(arg)
		}
	}
}

// checkWriteTarget classifies one write destination inside the
// goroutine body and reports it when it mutates captured state without
// a goroutine-local disambiguator.
func checkWriteTarget(p *Pass, lit *ast.FuncLit, loopVars map[types.Object]bool,
	lhs ast.Expr, report func(token.Pos, string, ...any)) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		obj := rootObject(p, e.X)
		if obj == nil || !capturedBy(lit, obj) {
			return
		}
		switch p.TypeOf(e.X).Underlying().(type) {
		case *types.Map:
			report(e.Pos(),
				"concurrent write to captured map %s: maps are unsafe to mutate from goroutines — funnel through a channel or hold a mutex", obj.Name())
		case *types.Slice, *types.Array, *types.Pointer:
			if !indexIsWorkerLocal(p, lit, loopVars, e.Index) {
				report(e.Pos(),
					"write to captured slice %s at a non-worker-local index: every goroutine hits the same slot — index by the worker id or job index", obj.Name())
			}
		}
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		obj := rootObject(p, e)
		if obj == nil || !capturedBy(lit, obj) {
			return
		}
		if _, isChan := p.TypeOf(lhs).(*types.Chan); isChan {
			return
		}
		report(lhs.Pos(),
			"unsynchronized goroutine write to captured %s: funnel the result through a channel, a per-worker slot, or a mutex", obj.Name())
	}
}

// capturedBy reports whether obj is declared outside the literal's
// extent, i.e. the goroutine body reaches it by capture.
func capturedBy(lit *ast.FuncLit, obj types.Object) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// indexIsWorkerLocal reports whether the index expression mentions any
// variable declared inside the goroutine body — the syntactic stand-in
// for "each worker computes disjoint indices". A captured loop variable
// counts too: the capture itself is already reported once at the go
// statement, and piling a slice-write diagnostic on top would bury it.
func indexIsWorkerLocal(p *Pass, lit *ast.FuncLit, loopVars map[types.Object]bool, index ast.Expr) bool {
	local := false
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		if loopVars[obj] || !capturedBy(lit, obj) {
			local = true
		}
		return !local
	})
	return local
}

// loopVarObjects collects the objects of the init/key/value variables
// of the enclosing loops.
func loopVarObjects(p *Pass, loops []ast.Node) map[types.Object]bool {
	vars := map[types.Object]bool{}
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	for _, l := range loops {
		switch l := l.(type) {
		case *ast.ForStmt:
			if as, ok := l.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					add(lhs)
				}
			}
		case *ast.RangeStmt:
			if l.Tok == token.DEFINE {
				add(l.Key)
				add(l.Value)
			}
		}
	}
	return vars
}

// capturedLoopVar returns a loop variable of an enclosing loop that the
// goroutine body reads, or nil.
func capturedLoopVar(p *Pass, lit *ast.FuncLit, loopVars map[types.Object]bool) types.Object {
	if len(loopVars) == 0 {
		return nil
	}
	var found types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && loopVars[obj] {
				found = obj
			}
		}
		return found == nil
	})
	return found
}

// holdsMutex reports whether the goroutine body locks a sync.Mutex or
// sync.RWMutex at any point; writes in such a body are presumed guarded
// (lock-scope precision is beyond an intraprocedural pass).
func holdsMutex(p *Pass, body *ast.BlockStmt) bool {
	held := false
	ast.Inspect(body, func(n ast.Node) bool {
		if held {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if isSyncMutex(p.TypeOf(sel.X)) {
				held = true
			}
		}
		return !held
	})
	return held
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isSyncMutex(t types.Type) bool {
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
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}
