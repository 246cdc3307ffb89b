package analysis

// intwidth makes the 64-bit assumption behind the size computations
// explicit and checked. The hot packages size buffers with expressions
// like n*n and n*(n-1)/2; at the n ≥ 10⁵ scale those exceed int32, so
// they are only safe because `int` is 64 bits wide on every supported
// platform. The analyzer enforces three things, all syntactically:
//
//  1. Every allowlisted package carries the compile-time width pin
//
//     // int must be 64-bit: ... (any doc comment)
//     const _ uint = 1 << 62
//
//     which fails to compile on a 32-bit-int platform, turning the
//     silent assumption into a build error. A package without the pin
//     is a finding.
//
//  2. No non-constant product, shift or sum is carried out in an
//     explicit sub-64-bit integer type (int32 and narrower): do the
//     arithmetic in int and narrow the result.
//
//  3. A narrowing conversion (int → int32 etc.) appears only as the
//     return value of a checked helper shaped like core.id32: the
//     operand is a parameter of the helper, and an earlier top-level
//     `if` of the helper panics whenever that parameter lies outside
//     the target type's range.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"slices"
)

var intWidthPackages = []string{
	"repro/internal/core",
	"repro/internal/exact",
	"repro/internal/steiner",
	"repro/internal/geom",
	"repro/internal/graph",
	"repro/internal/engine",
}

// IntWidth reports size computations that are not provably done in 64
// bits: missing width pins, sub-64-bit arithmetic that can overflow,
// and unguarded narrowing conversions.
var IntWidth = &Analyzer{
	Name: "intwidth",
	Doc:  "size computations must be provably 64-bit: width pin present, no overflowing 32-bit arithmetic or unguarded narrowing",
	AppliesTo: func(importPath string) bool {
		return pathIn(importPath, intWidthPackages...)
	},
	Run: runIntWidth,
}

func runIntWidth(p *Pass) {
	if len(p.Files) == 0 {
		return
	}
	if !hasWidthPin(p) {
		p.Reportf(p.Files[0].Package,
			"package lacks the 64-bit width pin `const _ uint = 1 << 62`; size computations like n*n assume it")
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checked := checkedNarrowing(p, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checkNarrowArith(p, n)
				case *ast.CallExpr:
					if n != checked {
						checkNarrowConv(p, n)
					}
				}
				return true
			})
		}
	}
}

// hasWidthPin reports whether any file of the package declares the
// blank uint constant 1<<62.
func hasWidthPin(p *Pass) bool {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "_" {
					continue
				}
				if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "uint" {
					continue
				}
				if len(vs.Values) != 1 {
					continue
				}
				tv, ok := p.Info.Types[vs.Values[0]]
				if !ok || tv.Value == nil {
					continue
				}
				if v, exact := constant.Uint64Val(constant.ToInt(tv.Value)); exact && v == 1<<62 {
					return true
				}
			}
		}
	}
	return false
}

// narrowRange returns the value range of a sub-64-bit integer type, or
// ok=false for 64-bit and non-integer types.
func narrowRange(t types.Type) (lo, hi int64, ok bool) {
	b, isBasic := t.Underlying().(*types.Basic)
	if !isBasic {
		return 0, 0, false
	}
	switch b.Kind() {
	case types.Int8:
		return math.MinInt8, math.MaxInt8, true
	case types.Int16:
		return math.MinInt16, math.MaxInt16, true
	case types.Int32:
		return math.MinInt32, math.MaxInt32, true
	case types.Uint8:
		return 0, math.MaxUint8, true
	case types.Uint16:
		return 0, math.MaxUint16, true
	case types.Uint32:
		return 0, math.MaxUint32, true
	}
	return 0, 0, false
}

// checkNarrowArith reports a non-constant *, << or + carried out in a
// sub-64-bit integer type.
func checkNarrowArith(p *Pass, e *ast.BinaryExpr) {
	switch e.Op {
	case token.MUL, token.SHL, token.ADD:
	default:
		return
	}
	t := p.TypeOf(e)
	if _, _, ok := narrowRange(t); !ok {
		return
	}
	if tv := p.Info.Types[e]; tv.Value != nil {
		return // constant expressions are checked by the compiler
	}
	p.Reportf(e.Pos(), "%s-typed %s can overflow its type; do the arithmetic in int (64-bit, see the width pin) and narrow the result through a checked helper",
		t.String(), opName(e.Op))
}

func opName(op token.Token) string {
	switch op {
	case token.MUL:
		return "product"
	case token.ADD:
		return "sum"
	}
	return "shift"
}

// narrowConv returns the bounds of T when call is a conversion T(x) of
// a non-constant integer x to a sub-64-bit type T that x's type does
// not fit in.
func narrowConv(p *Pass, call *ast.CallExpr) (lo, hi int64, ok bool) {
	tv, isType := p.Info.Types[call.Fun]
	if !isType || !tv.IsType() || len(call.Args) != 1 {
		return 0, 0, false
	}
	lo, hi, ok = narrowRange(tv.Type)
	if !ok {
		return 0, 0, false
	}
	arg := p.Info.Types[call.Args[0]]
	if arg.Type == nil || arg.Value != nil {
		return 0, 0, false // not a value, or a compiler-checked constant
	}
	if b, isBasic := arg.Type.Underlying().(*types.Basic); !isBasic || b.Info()&types.IsInteger == 0 {
		return 0, 0, false
	}
	if alo, ahi, narrow := narrowRange(arg.Type); narrow && alo >= lo && ahi <= hi {
		return 0, 0, false // widening or same-width: always fits
	}
	return lo, hi, true
}

// checkNarrowConv reports a narrowing conversion outside a checked
// helper's return.
func checkNarrowConv(p *Pass, call *ast.CallExpr) {
	lo, hi, ok := narrowConv(p, call)
	if !ok {
		return
	}
	p.Reportf(call.Pos(), "narrowing conversion %s: only a checked helper that panics outside [%d, %d] may narrow (see core.id32)",
		types.ExprString(call), lo, hi)
}

// checkedNarrowing returns the narrowing conversion fd is a checked
// helper for, or nil. The shape is core.id32's: fd's last statement is
// `return T(x)` with x a parameter of fd, and an earlier top-level
// `if` whose body is a single panic fires whenever x is below T's
// minimum or above its maximum. The condition is a || chain of
// comparisons of x against constants.
func checkedNarrowing(p *Pass, fd *ast.FuncDecl) *ast.CallExpr {
	stmts := fd.Body.List
	if len(stmts) < 2 {
		return nil
	}
	ret, ok := stmts[len(stmts)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	lo, hi, ok := narrowConv(p, call)
	if !ok {
		return nil
	}
	x := identObj(p, call.Args[0])
	if x == nil || !slices.Contains(paramObjects(p, fd), x) {
		return nil
	}
	for _, st := range stmts[:len(stmts)-1] {
		ifs, ok := st.(*ast.IfStmt)
		if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) != 1 || !isPanicStmt(ifs.Body.List[0]) {
			continue
		}
		gLo, gHi := guardBounds(p, ifs.Cond, x)
		if b, _ := x.Type().Underlying().(*types.Basic); b != nil && b.Info()&types.IsUnsigned != 0 {
			gLo = max(gLo, 0)
		}
		if gLo >= lo && gHi <= hi {
			return call
		}
	}
	return nil
}

// guardBounds returns the range x is confined to once the panic guard
// cond is false: each disjunct `x < c`, `x <= c`, `x > c` or `x >= c`
// (either operand order) cuts one side; anything else cuts nothing.
func guardBounds(p *Pass, cond ast.Expr, x types.Object) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		if be.Op == token.LOR {
			walk(be.X)
			walk(be.Y)
			return
		}
		op, c := be.Op, be.Y
		if identObj(p, be.X) != x {
			op, c = flipCompare(op), be.X
			if identObj(p, be.Y) != x {
				return
			}
		}
		v, ok := intConst(p, c)
		if !ok {
			return
		}
		switch op {
		case token.LSS: // x < v panics: x ≥ v after
			lo = max(lo, v)
		case token.LEQ:
			if v < math.MaxInt64 {
				lo = max(lo, v+1)
			}
		case token.GTR: // x > v panics: x ≤ v after
			hi = min(hi, v)
		case token.GEQ:
			if v > math.MinInt64 {
				hi = min(hi, v-1)
			}
		}
	}
	walk(cond)
	return lo, hi
}

// flipCompare mirrors a comparison for swapped operands (c < x is x > c).
func flipCompare(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// intConst returns e's value when it is an integer constant that fits
// int64.
func intConst(p *Pass, e ast.Expr) (int64, bool) {
	tv := p.Info.Types[e]
	if tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}
