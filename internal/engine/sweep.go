package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/inst"
	"repro/internal/obs"
)

// ScopeName is the obs scope the engine layer records into.
const ScopeName = "engine"

// Instrument names of the engine scope, as they appear in a -metrics
// JSON report. OBSERVABILITY.md is the catalogue.
const (
	// GaugeSweepWorkers records the worker count of the most recent
	// parallel sweep that fed the registry.
	GaugeSweepWorkers = "sweep_workers"
	// CtrSweepRuns counts individual sweep cells completed.
	CtrSweepRuns = "sweep_runs"
)

// SweepOptions configures a parallel parameter sweep.
type SweepOptions struct {
	// Workers bounds the worker pool. 0 means runtime.GOMAXPROCS; the
	// pool never exceeds the number of sweep cells.
	Workers int
}

func (o SweepOptions) workers(cells int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SweepParallel runs one named constructor over a list of parameter
// settings on a single instance, like Sweep, but fans the cells out
// over a bounded worker pool. Each worker draws one pooled core.Scratch
// and keeps it for every cell it serves, so a worker's cells share one
// partially sorted edge stream exactly as a serial sweep does.
//
// Determinism: results are returned in input order regardless of
// scheduling, and each cell is a pure function of (instance, Params),
// so the result slice is identical to Sweep's. Cells that carry an Obs
// registry record into a private per-cell registry during the run;
// after the fan-in barrier the private registries are merged into the
// caller's registries in input order (obs.Registry.Merge), so counter
// totals and gauge values are reproducible too.
//
// Cancellation: ctx aborts in-flight constructions (each construction
// polls it) and prevents unstarted cells from launching. The first
// failing cell by input order determines the returned error; a
// cancellation triggered by another cell's failure is not misreported
// as the primary error.
//
// Params.Scratch must be nil in every cell: a caller-pinned scratch is
// not safe to share across workers.
func (r *Registry) SweepParallel(ctx context.Context, name string, in *inst.Instance, ps []Params, opt SweepOptions) ([]Result, error) {
	c, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	// While validating cells, classify which geometry caches the sweep
	// will touch: only a sweep whose every cell resolves sparse on a
	// sparse-capable constructor can skip the O(n²) matrix.
	capable := r.sparseCapable(name)
	needDense, needSparse := !capable, false
	//lint:ignore ctxflow cell validation is O(sweep cells) with constant per-cell work, bounded by the caller's sweep width, not instance size
	for i := range ps {
		if ps[i].Scratch != nil {
			return nil, fmt.Errorf("engine: parallel sweep %s[%d]: Params.Scratch must be nil (scratches are per-worker)", name, i)
		}
		if capable && ps[i].Geometry.Sparse(in.N()) {
			needSparse = true
		} else {
			needDense = true
		}
	}
	if len(ps) == 0 {
		return []Result{}, nil
	}
	// The instance builds its geometry caches lazily and those first
	// builds are not safe for concurrent use; force the ones the cells
	// resolved to before fan-out.
	if needDense {
		in.DistMatrix()
	}
	if needSparse {
		in.Index() //lint:ignore ctxflow pre-fan-out geometry force, same contract as the DistMatrix line above: one bounded O(n·√n)-expected build before any cell launches
	}

	w := opt.workers(len(ps))
	ctx, stop := context.WithCancel(ctx)
	defer stop()

	out := make([]Result, len(ps))
	errs := make([]error, len(ps))
	// Private per-cell registries, merged into the caller's registries
	// after the barrier so shared-registry sweeps stay deterministic.
	priv := make([]*obs.Registry, len(ps))

	// runCell is the per-cell body shared by the serial path and the
	// worker pool, so both produce byte-identical results and obs.
	runCell := func(i int, s *core.Scratch) {
		p := ps[i]
		p.Scratch = s
		if p.Obs != nil {
			priv[i] = obs.NewRegistry()
			p.Obs = priv[i]
		}
		res, err := c.Build(ctx, in, p)
		if err != nil {
			errs[i] = fmt.Errorf("engine: sweep %s[%d]: %w", name, i, err)
			stop()
			return
		}
		out[i] = res
		if reg := priv[i]; reg != nil {
			sc := reg.Scope(ScopeName)
			if sc != nil {
				sc.Counter(CtrSweepRuns).Inc()
				sc.Gauge(GaugeSweepWorkers).Set(float64(w))
			}
		}
	}

	if w == 1 {
		// Serial fallback: one pooled scratch serves every cell in
		// input order, exactly as a single pool worker would, without
		// paying for the channel and the goroutine.
		func() {
			s := scratchPool.Get().(*core.Scratch)
			defer func() {
				s.Release()
				scratchPool.Put(s)
			}()
			for i := range ps {
				if ctx.Err() != nil {
					break // unstarted cells stay unlaunched, as in the pool
				}
				runCell(i, s)
			}
		}()
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := scratchPool.Get().(*core.Scratch)
				defer func() {
					s.Release()
					scratchPool.Put(s)
				}()
				for i := range next {
					runCell(i, s)
				}
			}()
		}
	feed:
		for i := range ps {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}

	// Deterministic error selection: the lowest-index real failure wins;
	// cells whose error is just the cancellation ripple of another
	// cell's failure never mask it. If every recorded error is a
	// cancellation, the sweep was externally cancelled.
	var firstCancel error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = e
			}
			continue
		}
		return nil, e
	}
	if err := ctx.Err(); err != nil && firstCancel != nil {
		return nil, firstCancel
	}
	// Cells never launched because of external cancellation also fail
	// the sweep, even when no worker recorded an error.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fold per-cell registries into the callers' registries in input
	// order — the merge order, not goroutine scheduling, decides gauge
	// last-write-wins.
	//lint:ignore ctxflow post-barrier O(cells) registry fold; aborting it mid-merge would break the merge-order contract pinned by TestSweepParallelObsMergeDeterministic
	for i, reg := range priv {
		if reg != nil && ps[i].Obs != nil {
			//lint:ignore allocloop snapshot merge allocates O(counters) per sweep cell, off the per-edge hot path
			ps[i].Obs.Merge(reg) //lint:ignore ctxflow post-barrier registry fold; aborting mid-merge would break the merge-order contract
		}
	}
	return out, nil
}

// SweepParallel runs a parallel parameter sweep through the default
// registry.
func SweepParallel(ctx context.Context, name string, in *inst.Instance, ps []Params, opt SweepOptions) ([]Result, error) {
	return defaultRegistry.SweepParallel(ctx, name, in, ps, opt)
}
