package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/obs"
)

// epsCycle is the path-length slack sequence every workload cycles
// through: tight, moderate and loose bounds.
var epsCycle = []float64{0.1, 0.5, 2}

// extent is the side of the square the terminals are drawn from.
const extent = 1000

// closedCfg describes a closed-loop workload: one caller builds one net
// at a time with engine.Build("bkrus", …) under default Params.
type closedCfg struct {
	minSinks, maxSinks int // sink counts are log-uniform over this range
	// pool is the number of distinct nets generated in setup. Every run
	// builds the whole pool at least once (the digest and cost ratio
	// cover exactly that first pass) and cycles it until the deadline.
	pool int
	// tailQ is the tail percentile reported as latency_tail_ms; the pool
	// is large enough that at least minBeyond samples lie beyond it.
	tailQ float64
}

// netSpec is one generated net with its slack.
type netSpec struct {
	src   geom.Point
	sinks []geom.Point
	pts   []pt // the same terminals for the checker, source first
	eps   float64
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	v := math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi)+1)-math.Log(float64(lo))))
	return min(hi, int(v))
}

// shapeSeed fixes each workload's shape: net sizes, request kinds, eps
// values and their order are the same in every run, so runs on
// different seeds do the same amount of work. The run's seed draws the
// terminals.
const shapeSeed = 1

// randomNet draws a uniform net with bench.Random from a seed taken
// from terms.
func randomNet(terms *rand.Rand, sinks int, eps float64) netSpec {
	in := bench.Random(terms.Int63(), sinks, extent)
	all := in.Points()
	s := netSpec{src: all[0], sinks: all[1:], eps: eps, pts: make([]pt, len(all))}
	for i, p := range all {
		s.pts[i] = pt{p.X, p.Y}
	}
	return s
}

// closedLoop is a set-up closed-loop workload.
type closedLoop struct {
	cfg  closedCfg
	nets []netSpec
	// Per pool entry, filled on the first pass: the tree's digest; later
	// passes must rebuild it byte for byte.
	treeSum []string
}

func newClosedLoop(cfg closedCfg, seed int64) (*closedLoop, error) {
	shape, terms := rand.New(rand.NewSource(shapeSeed)), rand.New(rand.NewSource(seed))
	w := &closedLoop{cfg: cfg, nets: make([]netSpec, cfg.pool), treeSum: make([]string, cfg.pool)}
	for i := range w.nets {
		w.nets[i] = randomNet(terms, logUniform(shape, cfg.minSinks, cfg.maxSinks), epsCycle[i%len(epsCycle)])
	}
	// One untimed warm-up build of a largest-size net loads code, grows
	// the scratch pool and lets the heap reach its working size. Its
	// terminals come from the shape seed, so set-up does the same work
	// on every seed.
	n := randomNet(shape, cfg.maxSinks, epsCycle[0])
	in, err := inst.New(n.src, n.sinks, geom.Manhattan)
	if err != nil {
		return nil, err
	}
	if _, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: n.eps}); err != nil {
		return nil, fmt.Errorf("warm-up build: %w", err)
	}
	in.Release()
	return w, nil
}

func (w *closedLoop) close() {}

// closedPhase is what one pass of the loop measured.
type closedPhase struct {
	lat        []float64 // per-net latency, ms
	nets, fail int
	cpu        time.Duration // process CPU while nets were being built
	busy       time.Duration // wall time minus untimed bookkeeping
	cost       float64       // over the first pass of the pool
	dig        *digest       // over the first pass of the pool, nil if incomplete
	matBytes   int64
	errs       []string
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase builds nets 0, 1, … (cycling the pool) until more(i) is false.
// With a tracer it records net → inst, geom.matrix|geom.index, core
// spans and a check span; reg, when non-nil, receives the layer counts.
func (w *closedLoop) phase(more func(i int) bool, tr *tracer, reg *obs.Registry) closedPhase {
	ctx := context.Background()
	var ph closedPhase
	ph.dig = newDigest()
	start := time.Now()
	var untimed time.Duration
	for i := 0; more(i); i++ {
		k := i % len(w.nets)
		n := w.nets[k]
		ph.nets++
		c0 := cpuNow()
		t0 := time.Now()
		in, err := inst.New(n.src, n.sinks, geom.Manhattan)
		if err != nil {
			ph.fail++
			ph.errs = append(ph.errs, err.Error())
			continue
		}
		t1 := time.Now()
		geomSpan := "geom.index"
		if !engine.GeomAuto.Sparse(in.N()) {
			geomSpan = "geom.matrix"
			ph.matBytes += in.DistMatrix().MemBytes()
		} else {
			in.Index()
		}
		t2 := time.Now()
		res, err := engine.Build(ctx, "bkrus", in, engine.Params{Eps: n.eps, Obs: reg})
		t3 := time.Now()
		in.Release()
		t4 := time.Now()
		ph.cpu += cpuNow() - c0
		ph.lat = append(ph.lat, float64(t4.Sub(t0).Nanoseconds())/1e6)
		if root := tr.add("net", i, -1, t0, t4); tr != nil {
			tr.add("inst", i, root, t0, t1)
			tr.add(geomSpan, i, root, t1, t2)
			tr.add("core", i, root, t2, t3)
		}

		u0 := time.Now()
		if err == nil {
			err = w.verify(k, i < len(w.nets), res, n, &ph)
		}
		u1 := time.Now()
		tr.add("check", i, -1, u0, u1)
		if err != nil {
			ph.fail++
			ph.errs = append(ph.errs, fmt.Sprintf("net %d: %v", i, err))
		}
		untimed += u1.Sub(u0)
	}
	ph.busy = time.Since(start) - untimed
	if ph.nets < len(w.nets) {
		ph.dig = nil
	}
	return ph
}

// verify checks one built tree, folds it into the digest and cost on
// the first pass, and on later passes requires the same bytes.
func (w *closedLoop) verify(k int, first bool, res engine.Result, n netSpec, ph *closedPhase) error {
	if res.Tree == nil {
		return fmt.Errorf("bkrus returned no spanning tree")
	}
	edges := make([]edge, len(res.Tree.Edges))
	for j, e := range res.Tree.Edges {
		edges[j] = edge{e.U, e.V, e.W}
	}
	cost, err := checkSpanning(n.pts, edges, n.eps)
	if err != nil {
		return err
	}
	one := newDigest()
	one.spanning(n.eps, edges)
	sum := one.sum()
	if w.treeSum[k] == "" {
		w.treeSum[k] = sum
	} else if w.treeSum[k] != sum {
		return fmt.Errorf("rebuild of pool net %d differs from its first build", k)
	}
	if first {
		ph.dig.spanning(n.eps, edges)
		ph.cost += cost
	}
	return nil
}

// mstCost is the reference for cost_ratio: the MST of the net's
// terminals, built on the sparse substrate so it stays cheap at 10⁴.
// It runs after the timed phase, so its garbage never lands in a timed
// build.
func mstCost(n netSpec) (float64, error) {
	in, err := inst.New(n.src, n.sinks, geom.Manhattan)
	if err != nil {
		return 0, err
	}
	res, err := engine.Build(context.Background(), "mst", in, engine.Params{Geometry: engine.GeomSparse})
	if err != nil {
		return 0, fmt.Errorf("reference mst: %w", err)
	}
	return res.Cost(), nil
}

// run measures the workload for the given time. Untraced, it reports
// the end-to-end metrics. Traced, it first builds nets untraced for
// half the time, then rebuilds the same nets traced, and reports the
// per-layer metrics of the traced pass plus the difference between the
// two passes as trace.overhead_pct.
func (w *closedLoop) run(seconds float64, tr *tracer) (*report, error) {
	rep := &report{}
	if tr == nil {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		ph := w.phase(func(i int) bool { return i < len(w.nets) || time.Now().Before(deadline) }, nil, nil)
		rep.count(ph.nets, ph.fail, ph.errs)
		p50 := median(ph.lat)
		tail, ok := percentile(ph.lat, w.cfg.tailQ)
		if !ok {
			return nil, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", w.cfg.tailQ*100, len(ph.lat), minBeyond)
		}
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		rep.set("nets_per_s", "1/s", float64(ph.nets-ph.fail)/ph.busy.Seconds(), ph.nets)
		rep.set("latency_p50_ms", "ms", p50, len(ph.lat))
		rep.set("latency_tail_ms", "ms", tail, len(ph.lat))
		rep.note("latency_tail_ms is p%g", w.cfg.tailQ*100)
		rep.set("cpu_s_per_net", "s", ph.cpu.Seconds()/float64(ph.nets), ph.nets)
		rep.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024, 1)
		mst := 0.0
		for _, n := range w.nets {
			c, err := mstCost(n)
			if err != nil {
				return nil, err
			}
			mst += c
		}
		rep.set("cost_ratio", "ratio", ph.cost/mst, len(w.nets))
		rep.digest, rep.digestN = ph.dig.sum(), len(w.nets)
		return rep, nil
	}

	half := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	a := w.phase(func(i int) bool { return i == 0 || time.Now().Before(half) }, nil, nil)
	reg := obs.NewRegistry()
	obs.SetDefault(reg) // the octant index records into the default registry
	defer obs.SetDefault(nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b := w.phase(func(i int) bool { return i < a.nets }, tr, reg)
	runtime.ReadMemStats(&m1)
	rep.count(a.nets+b.nets, a.fail+b.fail, append(a.errs, b.errs...))
	if b.dig != nil {
		rep.digest, rep.digestN = b.dig.sum(), len(w.nets)
	}

	nets := float64(b.nets)
	total, self, count := tr.layerTimes()
	perNet := func(name string) float64 { return total[name].Seconds() * 1e3 / nets }
	rep.set("net.ms", "ms", perNet("net"), count["net"])
	rep.set("net.self_ms", "ms", self["net"].Seconds()*1e3/nets, count["net"])
	rep.set("inst.new_ms", "ms", perNet("inst"), count["inst"])
	rep.set("geom.matrix_ms", "ms", perNet("geom.matrix"), count["geom.matrix"])
	rep.set("geom.matrix_mb", "MB", float64(b.matBytes)/1e6/nets, count["geom.matrix"])
	rep.set("geom.index_ms", "ms", perNet("geom.index"), count["geom.index"])
	gs := reg.Scope(geom.ScopeName)
	rep.set("geom.grid_probes", "count", float64(gs.Counter(geom.CtrGridProbes).Load())/nets, b.nets)
	rep.set("geom.octant_candidates", "count", float64(gs.Counter(geom.CtrOctantCandidates).Load())/nets, b.nets)
	rep.set("core.build_ms", "ms", perNet("core"), count["core"])
	coreLayer(rep, reg.Scope(core.ScopeName), nets, b.nets)
	rep.set("check.ms", "ms", perNet("check"), count["check"])
	rep.set("runtime.alloc_mb_per_net", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/nets, b.nets)
	rep.set("runtime.gc_cycles_per_net", "count", float64(m1.NumGC-m0.NumGC)/nets, b.nets)
	rep.set("trace.overhead_pct", "%", overheadPct(a.lat, b.lat), b.nets)
	return rep, nil
}

// coreLayer reports the BKRUS scan counts of a core scope per net.
func coreLayer(rep *report, sc *obs.Scope, nets float64, n int) {
	c := func(name string) float64 { return float64(sc.Counter(name).Load()) }
	for _, name := range []string{core.CtrEdgesExamined, core.CtrCycleRejections, core.CtrBoundRejections,
		core.CtrMerges, core.CtrWitnessScans, core.CtrStreamBatches, core.CtrStreamFallbacks} {
		rep.set("core."+name, "count", c(name)/nets, n)
	}
	rep.set("core.accept_share", "ratio", ratio(c(core.CtrMerges), c(core.CtrEdgesExamined)), n)
	rep.set("core.scans_per_merge", "ratio", ratio(c(core.CtrWitnessScans), c(core.CtrMerges)), n)
	rep.set("core.refresh_workers", "count", sc.Gauge(core.GaugeRefreshWorkers).Load(), n)
}

// overheadPct compares the total latency of the traced pass with the
// untraced pass over the same inputs.
func overheadPct(untraced, traced []float64) float64 {
	sumA, sumB := 0.0, 0.0
	for i := range min(len(untraced), len(traced)) {
		sumA += untraced[i]
		sumB += traced[i]
	}
	return (sumB/sumA - 1) * 100
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
