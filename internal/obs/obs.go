// Package obs is the repository's unified observability layer: named
// scopes of allocation-light instruments — atomic counters, gauges,
// monotonic timers, and fixed-bucket histograms — collected into a
// Registry whose Snapshot renders as human-readable text or JSON.
//
// The package is designed around three constraints of the algorithm
// layers it instruments (core, router, steiner, baseline):
//
//   - Hot loops must pay nothing when observation is off. Layers keep a
//     nil counter-set pointer when no registry is installed and skip all
//     counting behind one pointer test.
//   - Instrumented code must not need error handling or nil checks. A
//     nil *Scope hands out standalone instruments that work but are not
//     attached to any registry; a nil *Registry yields nil scopes.
//   - Collection must be safe under concurrency (RouteParallel workers
//     share one scope), so every instrument is built on sync/atomic and
//     scopes are internally locked only on the get-or-create path.
//     Instrumented code resolves its instruments once per construction
//     and then touches only atomics.
//
// Binaries install a process-wide default registry with SetDefault;
// layers pick it up opportunistically via DefaultScope, which returns
// nil — observation off — when no registry is installed. Code that
// wants per-run isolation passes an explicit scope or a standalone
// counter set instead (e.g. core.NewCounters(nil) in core.Config).
//
// Counter, gauge, timer, and histogram names follow Prometheus-style
// snake_case with the unit suffixed (edges_examined, route_wall,
// net_build_seconds). OBSERVABILITY.md is the catalogue of every name
// the repository emits.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically stored float64 measurement: the last Set wins.
// Values must be finite; non-finite values are sanitized to 0 when
// snapshotted so the JSON rendering stays valid.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the stored value (0 before the first Set).
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates monotonic wall-clock durations: total elapsed time
// and the number of observations.
type Timer struct {
	ns atomic.Int64
	n  atomic.Int64
}

// Observe folds one duration into the timer.
func (t *Timer) Observe(d time.Duration) {
	t.ns.Add(int64(d))
	t.n.Add(1)
}

// Start begins timing and returns the stop function that records the
// elapsed duration:
//
//	defer sc.Timer("build_seconds").Start()()
func (t *Timer) Start() func() {
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.n.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Histogram counts float64 observations into fixed buckets: counts[i]
// holds observations v with v <= bounds[i] (and > bounds[i-1]);
// observations above the last bound land in the overflow bucket. Bucket
// counts are per-bucket, not cumulative.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, fixed at creation
	counts  []atomic.Int64
	sumBits atomic.Uint64
	n       atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe counts v into its bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (shared slice; do not modify).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCount returns the count of bucket i (i == len(Bounds()) is the
// overflow bucket).
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// Scope is a named group of instruments, e.g. one per algorithm layer
// ("core", "router", "steiner", "baseline"). Instruments are created on
// first use and identified by name within their kind; repeated lookups
// return the same instrument, so counts accumulate across runs sharing
// a scope.
//
// All methods are safe for concurrent use. On a nil *Scope every
// getter returns a standalone working instrument that is not attached
// to any registry — instrumented code needs no nil checks, and
// observation simply goes nowhere.
type Scope struct {
	name string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
	order    map[kind][]string
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindTimer
	kindHistogram
)

func newScope(name string) *Scope {
	return &Scope{
		name:     name,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
		order:    map[kind][]string{},
	}
}

// Name returns the scope name.
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Counter returns the named counter, creating it on first use.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return &Counter{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
		s.order[kindCounter] = append(s.order[kindCounter], name)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return &Gauge{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
		s.order[kindGauge] = append(s.order[kindGauge], name)
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (s *Scope) Timer(name string) *Timer {
	if s == nil {
		return &Timer{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.timers[name]
	if !ok {
		t = &Timer{}
		s.timers[name] = t
		s.order[kindTimer] = append(s.order[kindTimer], name)
	}
	return t
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use. The bounds of an existing
// histogram are not changed by later calls.
func (s *Scope) Histogram(name string, bounds ...float64) *Histogram {
	if s == nil {
		return newHistogram(bounds)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = newHistogram(bounds)
		s.hists[name] = h
		s.order[kindHistogram] = append(s.order[kindHistogram], name)
	}
	return h
}

// Registry is an ordered collection of scopes plus free-form string
// labels (binary name, algorithm, benchmark) stamped onto its
// snapshots. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu         sync.Mutex
	scopes     map[string]*Scope
	scopeOrder []string
	labels     map[string]string
	labelOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{scopes: map[string]*Scope{}, labels: map[string]string{}}
}

// Scope returns the named scope, creating it on first use. A nil
// registry returns a nil scope (observation off).
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.scopes[name]
	if !ok {
		s = newScope(name)
		r.scopes[name] = s
		r.scopeOrder = append(r.scopeOrder, name)
	}
	return s
}

// SetLabel stamps a key=value label onto the registry's snapshots.
func (r *Registry) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.labels[key]; !ok {
		r.labelOrder = append(r.labelOrder, key)
	}
	r.labels[key] = value
}

// defaultReg is the process-wide registry installed by binaries.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs r as the process-wide default registry that the
// algorithm layers record into (nil uninstalls it). Intended for
// binaries: call once after flag parsing, before any construction.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Default returns the installed default registry, or nil.
func Default() *Registry { return defaultReg.Load() }

// DefaultScope returns the named scope of the default registry, or nil
// when no registry is installed — the "observation off" signal the
// algorithm layers test once per construction.
func DefaultScope(name string) *Scope { return defaultReg.Load().Scope(name) }
