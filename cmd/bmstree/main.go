// Command bmstree constructs a bounded path length routing tree for one
// instance and prints its edges and quality metrics.
//
// Usage:
//
//	bmstree -algo bkrus -eps 0.2 [-in file | -bench p1 | -random N]
//	bmstree -algo bkruslu -eps1 0.3 -eps2 0.5 -bench p4
//	bmstree -algo ahhk -c 0.5 -bench p3
//	bmstree -algo bkst -eps 0.1 -random 12 -seed 7
//	bmstree -algo list
//
// Instances come from a file in the text format of internal/bench
// (-in), a named paper benchmark (-bench p1..p4, pr1, pr2, r1..r5), or a
// seeded random net (-random N sinks). Algorithms are resolved through
// the internal/engine registry; run -algo list to see every registered
// constructor with the parameters it consults. -svg writes an SVG
// rendering of the result; -timeout aborts long constructions.
//
// Observability (see OBSERVABILITY.md): -metrics file.json dumps the
// construction counters of every instrumented layer as JSON, -pprof
// file writes a CPU profile, -trace file writes a runtime execution
// trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/steiner"
	"repro/internal/viz"
)

func main() {
	var (
		algo    = flag.String("algo", "bkrus", "constructor name, or \"list\" to print the registry")
		eps     = flag.Float64("eps", 0.2, "path length slack: bound = (1+eps)*R")
		eps1    = flag.Float64("eps1", 0, "lower bound factor for the *lu variants")
		eps2    = flag.Float64("eps2", 0.2, "upper bound slack for the *lu variants")
		cParam  = flag.Float64("c", 0.5, "AHHK trade-off constant (ahhk only)")
		inFile  = flag.String("in", "", "instance file (see internal/bench text format)")
		name    = flag.String("bench", "", "named benchmark: p1..p4, pr1, pr2, r1..r5")
		random  = flag.Int("random", 0, "generate a random net with this many sinks")
		seed    = flag.Int64("seed", 1, "seed for -random")
		depth   = flag.Int("depth", 0, "bkex exchange depth limit (0 = V-1)")
		xbudget = flag.Int("xbudget", 0, "exchange work budget for bkh2, bkh2elmore (0 = unlimited)")
		gbudget = flag.Int("gbudget", 0, "tree enumeration budget for bmstg (0 = default)")
		timeout = flag.Duration("timeout", 0, "abort the construction after this long (0 = no limit)")
		quiet   = flag.Bool("quiet", false, "print only the summary line")
		svg     = flag.String("svg", "", "write an SVG rendering of the tree to this file")
		dump    = flag.String("dump", "", "write the loaded instance to this file (text format)")

		pprofFile = flag.String("pprof", "", "write a CPU profile to this file")
		traceFile = flag.String("trace", "", "write a runtime execution trace to this file")
		metrics   = flag.String("metrics", "", "write an observability snapshot (JSON) to this file")
	)
	flag.Parse()

	if *algo == "list" {
		printRegistry()
		return
	}

	// AHHK historically smuggled its c constant through -eps. The c flag
	// is now authoritative; an explicit -eps without -c keeps working,
	// with a deprecation note.
	ahhkC := *cParam
	if *algo == "ahhk" {
		epsSet, cSet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "eps":
				epsSet = true
			case "c":
				cSet = true
			}
		})
		if epsSet && !cSet {
			fmt.Fprintln(os.Stderr, "bmstree: -eps for ahhk is deprecated; use -c (interpreting -eps as c this run)")
			ahhkC = *eps
		}
	}

	// Observability: -metrics installs a default registry so every layer
	// (core, steiner, baseline) records; -pprof/-trace are independent.
	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.SetLabel("binary", "bmstree")
		reg.SetLabel("algo", *algo)
		obs.SetDefault(reg)
	}
	stopProfiles, err := obs.StartProfiles(*pprofFile, *traceFile)
	if err != nil {
		fatal(err)
	}
	finish := func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
		if *metrics != "" {
			if err := obs.WriteFile(*metrics, obs.Default()); err != nil {
				fatal(err)
			}
		}
	}

	in, err := loadInstance(*inFile, *name, *random, *seed)
	if err != nil {
		fatal(err)
	}
	if *dump != "" {
		if err := dumpInstance(*dump, in); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	p := engine.Params{
		Eps: *eps, Eps1: *eps1, Eps2: *eps2, AHHKC: ahhkC,
		ExchangeDepth: *depth, ExchangeBudget: *xbudget, GabowBudget: *gbudget,
	}
	stopBuild := startBuildTimer()
	res, err := engine.Build(ctx, *algo, in, p)
	stopBuild()
	if err != nil {
		fatal(err)
	}

	mstCost := mst.Kruskal(in.DistMatrix()).Cost()
	switch {
	case res.Steiner != nil:
		st := res.Steiner
		if !*quiet {
			g := st.Grid()
			for _, e := range st.Edges() {
				fmt.Printf("wire %v -- %v  len %.4g\n", g.Coord(e.U), g.Coord(e.V), e.W)
			}
		}
		if *svg != "" {
			if err := writeSVG(*svg, func(f *os.File) error {
				return viz.Steiner(f, in, st, viz.DefaultStyle())
			}); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("algo=%s sinks=%d cost=%.6g radius=%.6g R=%.6g bound=%.6g cost/MST=%.4f planar=%v\n",
			*algo, in.NumSinks(), st.Cost(), st.Radius(), in.R(), in.Bound(*eps),
			st.Cost()/mstCost, steiner.IsPlanarEmbedding(st))
	default:
		tree := res.Tree
		if !*quiet {
			for _, e := range tree.Edges {
				fmt.Printf("edge %d -- %d  len %.4g\n", e.U, e.V, e.W)
			}
		}
		if *svg != "" {
			if err := writeSVG(*svg, func(f *os.File) error {
				return viz.Tree(f, in, tree, viz.DefaultStyle())
			}); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("algo=%s sinks=%d cost=%.6g radius=%.6g R=%.6g skew=%.4g cost/MST=%.4f\n",
			*algo, in.NumSinks(), tree.Cost(), tree.Radius(graph.Source), in.R(),
			skew(tree), tree.Cost()/mstCost)
	}
	finish()
}

// printRegistry lists every registered constructor with the Params
// fields it consults.
func printRegistry() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tkind\tparams\tdescription")
	for _, info := range engine.List() {
		needs := strings.Join(info.Needs, ",")
		if needs == "" {
			needs = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", info.Name, info.Kind, needs, info.Doc)
	}
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
}

// skew is the spread between the longest and shortest source-sink path.
func skew(t *graph.Tree) float64 {
	d := t.PathLengthsFrom(graph.Source)
	lo, hi := math.Inf(1), math.Inf(-1)
	for v := 1; v < t.N; v++ {
		lo = math.Min(lo, d[v])
		hi = math.Max(hi, d[v])
	}
	if t.N < 2 {
		return 0
	}
	return hi - lo
}

// startBuildTimer times the tree construction into the default
// registry's "run" scope; a no-op when observability is off.
func startBuildTimer() func() {
	if sc := obs.DefaultScope("run"); sc != nil {
		return sc.Timer("build_seconds").Start()
	}
	return func() {}
}

func loadInstance(file, name string, random int, seed int64) (*inst.Instance, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.ReadInstance(f)
	case name != "":
		in, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		return in, nil
	case random > 0:
		return bench.Random(seed, random, 100), nil
	default:
		return nil, fmt.Errorf("specify one of -in, -bench, -random")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bmstree:", err)
	os.Exit(1)
}

// dumpInstance writes the instance in the bench text format.
func dumpInstance(path string, in *inst.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return bench.WriteInstance(f, in)
}

// writeSVG renders into a freshly created file.
func writeSVG(path string, render func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return render(f)
}
