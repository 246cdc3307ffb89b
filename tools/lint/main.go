// Command lint runs the repository's thirteen domain-invariant
// analyzers (see internal/analysis: floatcmp, wallclock, obsgate,
// parallelgate, waitpair, sharedwrite, errdrop, detflow, ctxflow,
// allocloop, lockorder, intwidth, chanleak) over the packages matching
// the given patterns and prints one file:line:col diagnostic per
// finding. It exits 0 on a clean tree, 1 when there are findings, and 2
// on usage or load errors — a package that fails to list, parse or
// type-check is reported by import path on stderr. Partial loads are
// refused the same way: a broken or export-less package anywhere in
// the module names the failing package and exits 2, because silently
// analyzing the remainder would shrink the interprocedural call graph
// the module-wide analyzers depend on.
//
// Usage:
//
//	lint [-list] [-dir dir] [-analyzer names] [-format text|json] [packages]
//
// With no patterns it lints ./... . Whatever the patterns, the whole
// module is loaded and summarised, so the interprocedural analyzers see
// every cross-package call chain and a package gets the same verdict
// alone as under ./...; findings and unused suppressions are reported
// only for the packages the patterns name. -analyzer restricts the run
// to a comma-separated subset (e.g. -analyzer detflow,lockorder).
// Findings are suppressed per line with
// `//lint:ignore <analyzer> <reason>`; see the "Code invariants"
// section of the README for what each analyzer enforces and when a
// suppression is legitimate.
//
// -format json emits one JSON array of findings (file, line, col,
// analyzer, message, suppressed) for machine consumers — CI turns it
// into GitHub annotations. JSON mode also includes the findings that
// reasoned //lint:ignore directives cover, flagged "suppressed": true,
// so the suppression load is auditable; only unsuppressed findings
// count toward the exit code, which is the same in both formats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver, separated from main so the exit-code
// contract is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", "", "directory to resolve package patterns in (default: current directory)")
	only := fs.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	format := fs.String("format", "text", "output format: text or json")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lint [-list] [-dir dir] [-analyzer names] [-format text|json] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "lint: unknown -format=%s (want text or json)\n", *format)
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers = selectAnalyzers(analyzers, *only)
		if analyzers == nil {
			fmt.Fprintf(stderr, "lint: unknown analyzer in -analyzer=%s (use -list)\n", *only)
			return 2
		}
	}

	mod, err := analysis.LoadModule(*dir, fs.Args()...)
	if err != nil {
		var le *analysis.LoadError
		if errors.As(err, &le) {
			fmt.Fprintf(stderr, "lint: cannot load package %s: %v\n", le.ImportPath, le.Err)
		} else {
			fmt.Fprintln(stderr, "lint:", err)
		}
		return 2
	}
	if *format == "json" {
		return runJSON(mod, analyzers, stdout, stderr)
	}
	findings := 0
	for _, pkg := range mod.Targets {
		for _, d := range analysis.Run(pkg, analyzers) {
			fmt.Fprintln(stdout, d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "lint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable diagnostic shape. The field set
// is a compatibility contract with the CI annotation step; extend it,
// don't rename it.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// runJSON prints every finding — suppressed ones flagged — as one JSON
// array. The exit code ignores suppressed findings, matching text mode.
func runJSON(mod *analysis.Module, analyzers []*analysis.Analyzer, stdout, stderr io.Writer) int {
	out := []jsonFinding{} // encode [] on a clean tree, not null
	active := 0
	for _, pkg := range mod.Targets {
		for _, d := range analysis.RunAll(pkg, analyzers) {
			out = append(out, jsonFinding{
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
			if !d.Suppressed {
				active++
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "lint:", err)
		return 2
	}
	if active > 0 {
		fmt.Fprintf(stderr, "lint: %d finding(s)\n", active)
		return 1
	}
	return 0
}

// selectAnalyzers filters the registry down to the comma-separated
// names, preserving registry order. Returns nil when a name matches no
// analyzer.
func selectAnalyzers(all []*analysis.Analyzer, names string) []*analysis.Analyzer {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 || len(out) == 0 {
		return nil
	}
	return out
}
