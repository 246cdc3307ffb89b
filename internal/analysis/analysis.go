// Package analysis is a small stdlib-only static-analysis framework
// plus the thirteen domain analyzers that machine-check this
// repository's code invariants. Analyzers that ask about calls share
// one module-wide call graph (summary.go). The function-local
// analyzers:
//
//   - floatcmp: geometric weights are float64 and must never be
//     compared exactly outside the approved epsilon helpers in
//     internal/geom (Euclidean-mode table reproductions break
//     silently otherwise).
//   - wallclock: deterministic construction packages must not read
//     the wall clock directly; timing belongs to internal/obs timers
//     so the hot paths stay reproducible and nil-gated.
//   - obsgate: every obs recording call site must be reachable only
//     behind a nil-scope gate (or inside a counter-set method whose
//     call sites are gated), preserving the "observation off by
//     default costs one pointer test" contract.
//   - parallelgate, waitpair, sharedwrite: the goroutine invariants —
//     gated worker spawns, paired Add/Done, no unsynchronized writes
//     to captured shared state.
//   - errdrop: construction errors must not be silently discarded.
//
// The interprocedural analyzers (built on the per-function summaries
// of summary.go, the def-use chains of dataflow.go, and the taint
// engine of taint.go):
//
//   - detflow: map iteration order must not reach an unsorted
//     accumulator or an output write, and the other run-varying values
//     (select winners, clocks, unseeded random values, formatted
//     pointers) must not reach an exported return or an output write
//     without a sort.
//   - ctxflow: cancellable code must poll its ctx/cancel.Checker in
//     every instance-sized loop it runs, its own or a goroutine body's,
//     and thread the context down to every such loop it reaches across
//     calls.
//   - allocloop: instance-sized loops in the hot construction
//     packages must not allocate per iteration, directly or through
//     callees; scratch buffers with grow guards are the approved way.
//   - lockorder: the module-wide lock-acquisition-order graph over
//     named mutex classes must be acyclic.
//
// The last two:
//
//   - intwidth: n*n-scale size computations must be 64-bit — a width
//     pin per hot package, no non-constant arithmetic in a sub-64-bit
//     type, and a narrowing conversion only as the return of a checked
//     helper shaped like core.id32. All three rules are syntactic.
//   - chanleak: spawned goroutines whose only exits are channel ops
//     must have a pairing close/receive/send reachable on every
//     spawner path, directly or through callee channel-op summaries.
//
// mutation_test.go is the suite's evidence: a table of seeded bugs in
// real files, each naming the analyzers and the tests that kill it.
//
// The framework loads the whole module with one `go list` pass
// (syntax via go/parser, types via go/types and the toolchain's export
// data) whatever packages are asked for, so every package is judged
// against the same module-wide summaries; it runs each analyzer over
// the requested packages it applies to, and reports diagnostics with
// file:line:col positions. Findings are suppressed per line with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory, and the analyzer must be registered: a
// suppression without a reason, or naming an unknown analyzer, is
// itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description shown by `lint -list`.
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path. A nil AppliesTo means every package. The
	// driver consults this; tests may run an analyzer on any package
	// directly.
	AppliesTo func(importPath string) bool
	// Run inspects one type-checked package and reports findings
	// through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg   *Package // backlink for the shared CFG/call-graph caches
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a finding a reasoned //lint:ignore directive
	// covers. Run drops these; RunAll keeps them flagged so machine
	// consumers (lint -format json) can audit the suppression load.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer that applies to pkg and returns the
// surviving diagnostics: suppressed findings are dropped, malformed
// suppressions are reported, and the result is sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	all := RunAll(pkg, analyzers)
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// RunAll is Run without the suppression filter: findings a reasoned
// //lint:ignore covers are kept with Suppressed set, so a machine
// consumer sees the full finding load including what the tree chose to
// pin.
func RunAll(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			pkg:      pkg,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = append(diags, applySuppressions(pkg, analyzers, &diags)...)
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreDirective is one parsed //lint:ignore comment. It suppresses
// matching findings on its own line (trailing comment) and on the line
// directly below it (directive on a line of its own).
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Position
}

func (d ignoreDirective) covers(pos token.Position) bool {
	return d.file == pos.Filename && (d.line == pos.Line || d.line+1 == pos.Line)
}

// parseIgnores extracts the //lint:ignore directives of one file.
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			d := ignoreDirective{file: pos.Filename, line: pos.Line, pos: pos}
			if len(fields) > 0 {
				d.analyzer = fields[0]
			}
			if len(fields) > 1 {
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// applySuppressions flags suppressed findings in diags in place and
// returns extra diagnostics about malformed, unknown or unused
// directives. A directive is unknown when it names no registered
// analyzer (checked against All(), so a -analyzer subset stays quiet);
// only directives naming one of the analyzers that actually ran can be
// reported as unused.
func applySuppressions(pkg *Package, ran []*Analyzer, diags *[]Diagnostic) []Diagnostic {
	var ignores []ignoreDirective
	for _, f := range pkg.Files {
		ignores = append(ignores, parseIgnores(pkg.Fset, f)...)
	}
	if len(ignores) == 0 {
		return nil
	}
	var extra []Diagnostic
	used := make([]bool, len(ignores))
	for j, d := range *diags {
		for i, ig := range ignores {
			if ig.analyzer == d.Analyzer && ig.reason != "" && ig.covers(d.Pos) {
				(*diags)[j].Suppressed, used[i] = true, true
			}
		}
	}
	for i, ig := range ignores {
		switch {
		case ig.analyzer == "" || ig.reason == "":
			extra = append(extra, Diagnostic{
				Analyzer: "lint",
				Pos:      ig.pos,
				Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
			})
		case !registered(ig.analyzer):
			extra = append(extra, Diagnostic{
				Analyzer: "lint",
				Pos:      ig.pos,
				Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q (see lint -list)", ig.analyzer),
			})
		case !used[i] && analyzerRan(ig.analyzer, ran, pkg.ImportPath):
			extra = append(extra, Diagnostic{
				Analyzer: "lint",
				Pos:      ig.pos,
				Message:  fmt.Sprintf("unused //lint:ignore %s directive (nothing to suppress here)", ig.analyzer),
			})
		}
	}
	return extra
}

// analyzerRan reports whether the named analyzer was applied to the
// package in this Run call.
func analyzerRan(name string, ran []*Analyzer, importPath string) bool {
	for _, a := range ran {
		if a.Name == name && (a.AppliesTo == nil || a.AppliesTo(importPath)) {
			return true
		}
	}
	return false
}

// registered reports whether name is an analyzer of All().
func registered(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// All returns the repository's analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp, WallClock, ObsGate,
		ParallelGate, WaitPair, SharedWrite, ErrDrop,
		DetFlow, CtxFlow, AllocLoop, LockOrder,
		IntWidth, ChanLeak,
	}
}

// pathIn reports whether importPath is one of the given paths.
func pathIn(importPath string, paths ...string) bool {
	for _, p := range paths {
		if importPath == p {
			return true
		}
	}
	return false
}
