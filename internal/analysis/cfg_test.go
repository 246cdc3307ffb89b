package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// parseFuncCFG builds the CFG of the first function declared in src.
func parseFuncCFG(t *testing.T, src string) *funcCFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return buildCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

// TestCFGShapes pins the graph structure the builder produces for the
// control-flow idioms the analyzers rely on: branch joins, loop
// back-edges (with and without a post statement), labeled break and
// continue across nesting levels, and the defer chain with panic edges.
func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "if-else joins",
			src: `package p
func f(a int) int {
	x := 0
	if a > 0 {
		x = 1
	} else {
		x = 2
	}
	return x
}`,
			want: `b0 entry -> b2
b1 return -> b7
b2 if.cond -> b3 b5
b3 if.then -> b4
b4 if.done -> b1
b5 if.else -> b4
b6 unreachable -> b1
b7 exit ->
`,
		},
		{
			name: "for with post: body -> post -> head back-edge",
			src: `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`,
			want: `b0 entry -> b2
b1 return -> b7
b2 for.head -> b3 b4
b3 for.body -> b5
b4 for.done -> b1
b5 for.post -> b2
b6 unreachable -> b1
b7 exit ->
`,
		},
		{
			name: "condition-less for: no edge to done",
			src: `package p
func f() {
	for {
		tick()
	}
}`,
			want: `b0 entry -> b2
b1 return -> b5
b2 for.head -> b3
b3 for.body -> b2
b4 for.done -> b1
b5 exit ->
`,
		},
		{
			name: "range: body -> head back-edge",
			src: `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`,
			want: `b0 entry -> b2
b1 return -> b6
b2 range.head -> b3 b4
b3 range.body -> b2
b4 range.done -> b1
b5 unreachable -> b1
b6 exit ->
`,
		},
		{
			name: "labeled break and continue target the outer loop",
			src: `package p
func f(rows [][]int) int {
	s := 0
outer:
	for _, row := range rows {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			if v == 0 {
				continue outer
			}
			s += v
		}
	}
	return s
}`,
			// break outer jumps to b4 (the outer range.done), continue
			// outer to b2 (the outer range.head) — not to the inner
			// loop's blocks.
			want: `b0 entry -> b2
b1 return -> b17
b2 range.head -> b3 b4
b3 range.body -> b5
b4 range.done -> b1
b5 range.head -> b6 b7
b6 range.body -> b8
b7 range.done -> b2
b8 if.cond -> b9 b10
b9 if.then -> b4
b10 if.done -> b12
b11 unreachable -> b10
b12 if.cond -> b13 b14
b13 if.then -> b2
b14 if.done -> b5
b15 unreachable -> b14
b16 unreachable -> b1
b17 exit ->
`,
		},
		{
			name: "defer chain with panic edge from a calling block",
			src: `package p
func f(xs []int) {
	defer done()
	use(xs)
}`,
			// b0 contains the use(xs) call, so it may panic: it gets an
			// edge straight into the defer chain (b2) besides the
			// normal return path.
			want: `b0 entry -> b1 b2
b1 return -> b2
b2 defer -> b3
b3 exit ->
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := parseFuncCFG(t, c.src)
			if got := g.debugString(); got != c.want {
				t.Errorf("graph mismatch:\ngot:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

// TestCFGDominators pins the dominance queries the gate analyzers ask:
// a branch condition dominates both arms, an arm never dominates the
// join, and an unconditionally registered defer's block dominates the
// exit while a conditional one's does not.
func TestCFGDominators(t *testing.T) {
	g := parseFuncCFG(t, `package p
func f(a int) int {
	x := 0
	if a > 0 {
		x = 1
	} else {
		x = 2
	}
	return x
}`)
	idom := g.dominators()
	blk := func(kind string) *cfgBlock {
		for _, b := range g.blocks {
			if b.kind == kind {
				return b
			}
		}
		t.Fatalf("no %s block", kind)
		return nil
	}
	cond, then, els, join := blk("if.cond"), blk("if.then"), blk("if.else"), blk("if.done")
	if !dominates(idom, cond, then) || !dominates(idom, cond, els) || !dominates(idom, cond, join) {
		t.Error("if.cond must dominate both arms and the join")
	}
	if dominates(idom, then, join) || dominates(idom, els, join) {
		t.Error("neither arm may dominate the join")
	}
	if !dominates(idom, g.entry, g.exit) {
		t.Error("entry must dominate exit")
	}

	unreachable := blk("unreachable")
	if idom[unreachable.index] != nil {
		t.Error("unreachable blocks must have nil idom")
	}

	// Conditional defer: its registering block must not dominate exit.
	g2 := parseFuncCFG(t, `package p
func f(a int) {
	if a > 0 {
		return
	}
	defer done()
	use(a)
}`)
	idom2 := g2.dominators()
	var deferReg *cfgBlock
	for _, b := range g2.blocks {
		for _, n := range b.nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				deferReg = b
			}
		}
	}
	if deferReg == nil {
		t.Fatal("no block holds the DeferStmt")
	}
	if dominates(idom2, deferReg, g2.exit) {
		t.Error("a defer registered after an early return must not dominate exit")
	}
}

// TestCFGReachability pins canReach with an avoid predicate — the
// "serial arm bypasses the spawn" question parallelgate asks.
func TestCFGReachability(t *testing.T) {
	g := parseFuncCFG(t, `package p
func f(w int, xs []int) {
	if w > 1 {
		spawn(xs)
		return
	}
	serial(xs)
}`)
	var spawnBlk, serialBlk *cfgBlock
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			s, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch call.Fun.(*ast.Ident).Name {
			case "spawn":
				spawnBlk = b
			case "serial":
				serialBlk = b
			}
		}
	}
	if spawnBlk == nil || serialBlk == nil {
		t.Fatal("missing spawn/serial blocks")
	}
	if g.canReach(serialBlk, spawnBlk, nil) {
		t.Error("the serial arm must not reach the spawn")
	}
	avoid := func(b *cfgBlock) bool { return b == spawnBlk }
	if !g.canReach(serialBlk, g.exit, avoid) {
		t.Error("the serial arm must reach exit while avoiding the spawn")
	}
	if !g.canReach(g.entry, spawnBlk, nil) {
		t.Error("the spawn must be reachable from entry")
	}
}

// invariantRowRe matches the analyzer-name cell of a "Code invariants"
// table row in the README.
var invariantRowRe = regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")

// TestRegistryREADMESync is the conformance check tying the three
// surfaces together: the analyzer registry (All), the lint -list
// output (generated from All, pinned in tools/lint tests), and the
// README "Code invariants" table must name the same analyzers.
func TestRegistryREADMESync(t *testing.T) {
	want := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Name, Doc, or Run", a.Name)
		}
		if want[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		want[a.Name] = true
	}
	if len(want) != 13 {
		t.Errorf("registry has %d analyzers, want 13", len(want))
	}
	// Every fixture directory belongs to a registered analyzer, so a
	// retired analyzer's fixture cannot linger unrun.
	fixtures, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fixtures {
		if e.IsDir() && !want[e.Name()] {
			t.Errorf("testdata/%s names no registered analyzer", e.Name())
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(readme)
	if i := strings.Index(section, "## Code invariants"); i >= 0 {
		section = section[i:]
		if j := strings.Index(section[1:], "\n## "); j >= 0 {
			section = section[:j+1]
		}
	} else {
		t.Fatal("README has no \"## Code invariants\" section")
	}
	documented := map[string]bool{}
	for _, m := range invariantRowRe.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	for name := range want {
		if !documented[name] {
			t.Errorf("analyzer %q is not documented in the README invariant table", name)
		}
	}
	for name := range documented {
		if !want[name] {
			t.Errorf("README documents analyzer %q that is not registered", name)
		}
	}
}
