// Package engine is the unified construction front door: every tree
// construction in the repository — the paper's core BKRUS family, the
// baselines, the exact Gabow enumeration, the exchange post-processors,
// the Elmore-delay variants, and the Steiner constructions — registers
// here under a stable name, takes the same explicit Params surface, and
// is driven through one Build call with context cancellation.
//
// The package exists to kill three recurring problems:
//
//   - flag reuse: callers used to smuggle AHHK's c through -eps and
//     pick algorithms with per-binary switch statements. Params makes
//     every knob an explicit named field; the registry makes dispatch
//     data, not code.
//   - obs shims: each layer grew a parallel ...Observed entry point to
//     thread counters in. The engine resolves each layer's scope from
//     Params.Obs at build time instead.
//   - allocation churn in sweeps: ε-sweeps rebuild on one immutable
//     instance many times. Build draws the BKRUS scratch from a
//     sync.Pool, and Sweep pins one scratch across a whole parameter
//     list, so repeated runs stop re-allocating the working buffers and
//     re-sorting the complete edge list.
//
// Determinism: constructors are pure functions of (instance, Params);
// registry listings are sorted by name.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// Kind classifies what a constructor produces.
type Kind int

const (
	// Spanning constructors return a spanning tree over the terminals
	// (Result.Tree).
	Spanning Kind = iota
	// Steiner constructors may add Steiner points and return a grid
	// embedding (Result.Steiner).
	Steiner
)

func (k Kind) String() string {
	switch k {
	case Spanning:
		return "spanning"
	case Steiner:
		return "steiner"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params is the one explicit parameter surface shared by every
// registered constructor. Each constructor consults only the fields its
// Info.Needs lists and ignores the rest; zero values are the documented
// defaults (ε = 0 means the tight bound, zero RC model means
// delay.DefaultModel()).
type Params struct {
	// Eps is the path-length slack of the single-bound problem: every
	// source-sink path at most (1+Eps)·R.
	Eps float64
	// Eps1 and Eps2 are the §6 window slacks: every path in
	// [Eps1·R, (1+Eps2)·R].
	Eps1, Eps2 float64
	// AHHKC is the AHHK Prim-Dijkstra trade-off constant (its own field:
	// historically it was smuggled through eps flags).
	AHHKC float64
	// ExchangeDepth caps chained T-exchanges in BKEX (0 = unlimited,
	// i.e. V-1).
	ExchangeDepth int
	// ExchangeBudget caps total exchange-search work in BKH2
	// (0 = unlimited).
	ExchangeBudget int
	// GabowBudget caps spanning trees enumerated by the exact search
	// (0 = exact.DefaultMaxTrees).
	GabowBudget int
	// RC is the Elmore delay model for the delay-bounded constructors; a
	// zero model means delay.DefaultModel().
	RC delay.Model
	// Obs, when non-nil, receives each layer's construction metrics in
	// its usual scope ("core", "baseline", "steiner", ...). nil keeps
	// the historical opportunistic behaviour: layers record into the
	// process default registry when one is installed.
	Obs *obs.Registry
	// Scratch, when non-nil, supplies the reusable BKRUS working buffers
	// (forest bookkeeping, sorted edges). Build and Sweep manage this
	// themselves; set it only to pin a scratch across hand-rolled runs.
	// Not safe for concurrent use.
	Scratch *core.Scratch
	// Geometry selects the geometric substrate for the constructors that
	// support both (mst, bkrus, bkruslu): dense materializes the distance
	// matrix and complete edge list (the historical behaviour), sparse
	// runs on the distance oracle and octant neighbor graph with no
	// O(n²) state. The zero value GeomAuto resolves by instance size
	// (core.SparseThreshold). Constructors without sparse support ignore
	// the field and stay dense.
	Geometry Geometry
}

// Geometry re-exports the core substrate selector so engine callers
// need not import core for a Params field.
type Geometry = core.Geometry

// Geometry modes, re-exported from core.
const (
	GeomAuto   = core.GeomAuto
	GeomDense  = core.GeomDense
	GeomSparse = core.GeomSparse
)

// rcModel resolves the Elmore model, defaulting the zero value.
func (p Params) rcModel() delay.Model {
	m := p.RC
	if m.RUnit == 0 && m.CUnit == 0 && m.RDriver == 0 && m.CDriver == 0 && m.Load == nil {
		return delay.DefaultModel()
	}
	return m
}

// coreConfig wires Params into the core layer's build hooks.
func (p Params) coreConfig() core.Config {
	cfg := core.Config{Scratch: p.Scratch, Geometry: p.Geometry}
	if p.Obs != nil {
		cfg.Counters = core.NewCounters(p.Obs.Scope(core.ScopeName))
	}
	return cfg
}

// steinerConfig wires Params into the Steiner layer's build hooks.
func (p Params) steinerConfig(planar bool) steiner.Config {
	cfg := steiner.Config{Planar: planar}
	if p.Obs != nil {
		cfg.Counters = steiner.NewCounters(p.Obs.Scope(steiner.ScopeName))
	}
	return cfg
}

// Result is what a constructor produces: exactly one of Tree (spanning)
// or Steiner (rectilinear Steiner embedding) is non-nil, matching the
// constructor's Kind.
type Result struct {
	Tree    *graph.Tree
	Steiner *steiner.SteinerTree
}

// Cost returns the wirelength of whichever tree the result holds.
func (r Result) Cost() float64 {
	if r.Steiner != nil {
		return r.Steiner.Cost()
	}
	if r.Tree != nil {
		return r.Tree.Cost()
	}
	return 0
}

// BuildFunc is the implementation signature of a registered constructor.
type BuildFunc func(ctx context.Context, in *inst.Instance, p Params) (Result, error)

// Constructor is one registered tree construction.
type Constructor interface {
	Name() string
	Kind() Kind
	Build(ctx context.Context, in *inst.Instance, p Params) (Result, error)
}

// Info describes a constructor for listings: which Params fields it
// consults (Needs, by conventional short name: "eps", "eps1", "eps2",
// "c", "depth", "xbudget", "gbudget", "rc") and a one-line doc string.
type Info struct {
	Name  string
	Kind  Kind
	Needs []string
	Doc   string
}

// spec is the registry's concrete Constructor.
type spec struct {
	info  Info
	build BuildFunc
}

func (s *spec) Name() string { return s.info.Name }
func (s *spec) Kind() Kind   { return s.info.Kind }
func (s *spec) Build(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
	return s.build(ctx, in, p)
}

// Registry maps constructor names to implementations. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*spec)}
}

// Register adds a constructor. It panics on an empty name, nil build
// function, or duplicate registration — all programmer errors at init
// time, never data-dependent.
func (r *Registry) Register(info Info, build BuildFunc) {
	if info.Name == "" || build == nil {
		panic("engine: Register needs a name and a build function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[info.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate constructor %q", info.Name))
	}
	r.byName[info.Name] = &spec{info: info, build: build}
}

// Lookup resolves a constructor by name. An unknown name returns an
// error listing every registered name, so CLI surfaces can forward it
// verbatim.
func (r *Registry) Lookup(name string) (Constructor, error) {
	r.mu.RLock()
	s, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown constructor %q (known: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return s, nil
}

// Names returns every registered name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List returns every registration's Info, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]Info, 0, len(r.byName))
	for _, s := range r.byName {
		infos = append(infos, s.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// defaultRegistry holds the built-in constructors, registered in
// builtin.go's init.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry of built-in constructors.
func Default() *Registry { return defaultRegistry }

// Register adds a constructor to the default registry.
func Register(info Info, build BuildFunc) { defaultRegistry.Register(info, build) }

// Lookup resolves a name in the default registry.
func Lookup(name string) (Constructor, error) { return defaultRegistry.Lookup(name) }

// Names lists the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }

// List returns the default registry's Infos, sorted by name.
func List() []Info { return defaultRegistry.List() }

// scratchPool recycles BKRUS scratch buffers across Build calls so
// repeated single builds (servers, routers) converge to zero
// steady-state allocation for the O(n²) working state.
var scratchPool = sync.Pool{New: func() interface{} { return new(core.Scratch) }}

// Build resolves name and runs it with a pooled scratch (unless the
// caller pinned one in p.Scratch). A cancelled ctx returns before
// dispatch, so even a constructor with no loop to poll (spt) honours it.
func (r *Registry) Build(ctx context.Context, name string, in *inst.Instance, p Params) (Result, error) {
	c, err := r.Lookup(name)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if p.Scratch == nil {
		s := scratchPool.Get().(*core.Scratch)
		defer func() {
			// Release before parking: a pooled scratch that kept its edge
			// stream would pin the last instance (and its O(n²) edge list)
			// for the pool entry's whole lifetime.
			s.Release()
			scratchPool.Put(s)
		}()
		p.Scratch = s
	}
	return c.Build(ctx, in, p)
}

// ScopeName is the obs scope the engine layer records into.
const ScopeName = "engine"

// CtrSweepRuns counts sweep cells completed by Sweep, recorded into the
// engine scope of each cell's Params.Obs. OBSERVABILITY.md is the
// catalogue.
const CtrSweepRuns = "sweep_runs"

// Sweep runs one named constructor over a list of parameter settings on
// a single instance, reusing one scratch for the whole sweep: the edge
// list is sorted once and the working buffers allocated once. A cell
// that pins Params.Scratch (the serving layer pins its cache entry's)
// uses that scratch instead, so the sorted prefix outlives the sweep.
// The context is checked between runs (and inside each construction's
// own loops), so a cancelled ctx aborts the sweep promptly. Results are
// returned in input order; the first error aborts the sweep.
func (r *Registry) Sweep(ctx context.Context, name string, in *inst.Instance, ps []Params) ([]Result, error) {
	c, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	var scratch core.Scratch
	// The shared scratch caches the instance's partially sorted edge
	// stream across the sweep; drop that cache at teardown so nothing
	// that outlives the sweep (a caller-pinned p.Scratch alias, a future
	// pooled variant) keeps the instance and its O(n²) edges alive.
	defer scratch.Release()
	out := make([]Result, len(ps))
	for i, p := range ps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.Scratch == nil {
			p.Scratch = &scratch
		}
		res, err := c.Build(ctx, in, p)
		if err != nil {
			return nil, fmt.Errorf("engine: sweep %s[%d]: %w", name, i, err)
		}
		out[i] = res
		if p.Obs != nil {
			p.Obs.Scope(ScopeName).Counter(CtrSweepRuns).Inc()
		}
	}
	return out, nil
}

// Build runs a named constructor from the default registry.
func Build(ctx context.Context, name string, in *inst.Instance, p Params) (Result, error) {
	return defaultRegistry.Build(ctx, name, in, p)
}

// Sweep runs a parameter sweep through the default registry.
func Sweep(ctx context.Context, name string, in *inst.Instance, ps []Params) ([]Result, error) {
	return defaultRegistry.Sweep(ctx, name, in, ps)
}
