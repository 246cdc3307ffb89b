// Package bpmst constructs minimal spanning and Steiner routing trees
// with bounded source-sink path lengths, reproducing Oh, Pyo and Pedram,
// "Constructing Minimal Spanning/Steiner Trees with Bounded Path Length"
// (ED&TC/DATE 1996).
//
// In performance-driven VLSI routing, the shortest path tree (SPT)
// minimizes the critical source-sink delay but wastes wirelength (area
// and power), while the minimal spanning tree (MST) minimizes wirelength
// but can contain very long source-sink paths. This package trades
// between the two: given a non-negative parameter ε, every constructor
// returns a tree whose longest source-sink path is at most (1+ε)·R,
// where R is the direct distance from the source to its farthest sink,
// at close to minimal wirelength.
//
// # Algorithms
//
//   - BKRUS — the paper's bounded Kruskal heuristic, O(V³): the
//     workhorse. Within ~3% of the optimal bounded tree on average
//     (see EXPERIMENTS.md for the worst-case spread).
//   - BKH2 — BKRUS followed by depth-2 negative-sum-exchanges: a deeper
//     local optimum at O(E²V³).
//   - BKEX — negative-sum-exchange search to (empirical) optimality.
//   - BMSTG — exact optimum via Gabow-style spanning tree enumeration in
//     nondecreasing cost order; exponential space, for small nets.
//   - BPRIM, BRBC — the Cong-Kahng-Robins baselines the paper compares
//     against.
//   - BKRUSLU — both lower and upper path length bounds (clock routing,
//     double-clocking avoidance).
//   - BKRUSElmore — BKRUS under the Elmore RC delay model instead of
//     wirelength.
//   - BKST — bounded path length rectilinear Steiner tree on the Hanan
//     grid; typically 5-30% cheaper than any spanning construction.
//   - MST, SPT, MaxST — the classical reference trees.
//
// # Quick start
//
//	net, err := bpmst.NewNet(bpmst.Point{X: 0, Y: 0}, sinks, bpmst.Manhattan)
//	if err != nil { ... }
//	tree, err := bpmst.BKRUS(net, 0.2) // paths within 1.2x of direct
//	if err != nil { ... }
//	fmt.Println(tree.Cost(), tree.Radius(), net.Bound(0.2))
//
// # Beneath the facade
//
// This package is a thin facade: every constructor above builds through
// internal/engine by registry name. The machinery underneath (all
// stdlib-only, see README.md "Architecture" and DESIGN.md):
//
//   - internal/engine — the unified construction engine: every
//     constructor above registered behind one Params surface, with
//     context cancellation (polled at stride via internal/cancel,
//     usable from any loop) and parameter sweeps that share one lazy
//     sorted-edge stream, serially or on a worker pool with
//     byte-identical results.
//   - internal/serve and cmd/bmstreed — the tree-construction service
//     daemon: batch HTTP/JSON builds over the same registry, with
//     bounded-queue admission, per-request deadlines, an instance
//     cache, /metrics and graceful drain. SERVING.md is the runbook.
//   - internal/obs — observability: atomic counters/gauges/timers per
//     construction layer, JSON snapshots behind the -metrics flag of
//     every binary and the daemon's /metrics endpoint; free when off
//     (one nil check). OBSERVABILITY.md catalogues every metric.
//   - internal/analysis and tools/lint — nine stdlib-only static
//     analyzers enforcing the domain invariants the compiler cannot
//     see (float comparison discipline, map-order determinism,
//     cancellation polling, goroutine gating/pairing/sharing, error
//     handling); wired into make lint and CI.
//
// # Binaries
//
//   - cmd/bmstree — one algorithm on one instance (file, named
//     benchmark, or random), with -metrics/-pprof/-trace.
//   - cmd/experiments — regenerates every table and figure of the
//     paper (see EXPERIMENTS.md for paper-vs-measured results).
//   - cmd/globalroute — multi-net global routing with congestion
//     reports and SVG heatmaps.
//   - cmd/bmstreed — the serving daemon (SERVING.md).
//
// See examples/ for runnable scenarios.
package bpmst
