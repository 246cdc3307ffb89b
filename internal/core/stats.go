package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
)

// ScopeName is the obs scope the core layer records into. When a
// process-wide default registry is installed (obs.SetDefault), every
// BKRUS construction accumulates its counters there; otherwise counting
// is off and the engine pays a single nil test per event site.
const ScopeName = "core"

// Counter names of the core scope, as they appear in a -metrics JSON
// report. OBSERVABILITY.md is the catalogue.
const (
	CtrEdgesExamined   = "edges_examined"
	CtrCycleRejections = "cycle_rejections"
	CtrBoundRejections = "bound_rejections"
	CtrLemmaRejections = "lemma_rejections"
	CtrMerges          = "merges"
	CtrWitnessScans    = "witness_scans"
	CtrStreamBatches   = "stream_batches"
	CtrStreamFallbacks = "stream_fallback_sorts"
)

// GaugeRefreshWorkers is no longer recorded: the per-merge refresh is
// serial. The name stays because the perfbench module still reads it.
const GaugeRefreshWorkers = "refresh_workers"

// Counters is the BKRUS engine's obs-backed counter set. Construct with
// NewCounters; a set resolved from a shared scope accumulates across
// every construction recording into it (the aggregate view binaries
// want), while a standalone set (NewCounters(nil)) isolates one run
// (the BKRUSWithStats view).
type Counters struct {
	EdgesExamined   *obs.Counter // candidate edges popped from the sorted list
	CycleRejections *obs.Counter // condition (2): endpoints already connected
	BoundRejections *obs.Counter // condition (3): merge would break the bound
	LemmaRejections *obs.Counter // Lemma 6.1: direct source edge below the lower bound
	Merges          *obs.Counter // accepted edges (always N-1 on success)
	WitnessScans    *obs.Counter // nodes visited by (3-b) witness searches
	StreamBatches   *obs.Counter // sorted batches the lazy edge stream produced
	StreamFallbacks *obs.Counter // whole-tail fallback sorts the stream took
}

// NewCounters resolves the core counter set inside sc. A nil scope
// yields a standalone set not attached to any registry.
func NewCounters(sc *obs.Scope) *Counters {
	return &Counters{
		EdgesExamined:   sc.Counter(CtrEdgesExamined),
		CycleRejections: sc.Counter(CtrCycleRejections),
		BoundRejections: sc.Counter(CtrBoundRejections),
		LemmaRejections: sc.Counter(CtrLemmaRejections),
		Merges:          sc.Counter(CtrMerges),
		WitnessScans:    sc.Counter(CtrWitnessScans),
		StreamBatches:   sc.Counter(CtrStreamBatches),
		StreamFallbacks: sc.Counter(CtrStreamFallbacks),
	}
}

// stats reads the counter set back into the legacy BuildStats view.
func (c *Counters) stats() BuildStats {
	return BuildStats{
		EdgesExamined:   int(c.EdgesExamined.Load()),
		CycleRejections: int(c.CycleRejections.Load()),
		BoundRejections: int(c.BoundRejections.Load()),
		LemmaRejections: int(c.LemmaRejections.Load()),
		Merges:          int(c.Merges.Load()),
		WitnessScans:    int(c.WitnessScans.Load()),
		StreamBatches:   int(c.StreamBatches.Load()),
		StreamFallbacks: int(c.StreamFallbacks.Load()),
	}
}

// BuildStats describes one BKRUS construction run: how many candidate
// edges were examined and why they were discarded. Useful for
// diagnosing why a construction came out expensive (many bound
// rejections force direct source edges) and for verifying the
// complexity analysis empirically.
//
// BuildStats is the per-run shim over the obs-backed Counters the
// engine actually counts into; field order and meaning are unchanged
// from before the migration.
type BuildStats struct {
	EdgesExamined   int // candidate edges popped from the sorted list
	CycleRejections int // condition (2): endpoints already connected
	BoundRejections int // condition (3): merge would break the bound
	LemmaRejections int // Lemma 6.1: direct source edge below the lower bound
	Merges          int // accepted edges (always N-1 on success)
	WitnessScans    int // nodes visited by (3-b) witness searches
	StreamBatches   int // sorted batches the lazy edge stream produced
	StreamFallbacks int // whole-tail fallback sorts the stream took
}

// String summarizes the stats on one line.
func (s BuildStats) String() string {
	return fmt.Sprintf("examined %d: %d merges, %d cycle, %d bound, %d lemma rejections; %d witness scans",
		s.EdgesExamined, s.Merges, s.CycleRejections, s.BoundRejections, s.LemmaRejections, s.WitnessScans)
}

// BKRUSWithStats is BKRUSBounds returning construction statistics
// alongside the tree. On error the stats cover the work done before the
// failure. The run counts into a private counter set, so the returned
// stats describe exactly this construction even when a default registry
// is installed.
func BKRUSWithStats(in *inst.Instance, b Bounds) (*graph.Tree, BuildStats, error) {
	c := NewCounters(nil)
	t, err := BKRUSBuild(context.Background(), in, b, Config{Counters: c})
	return t, c.stats(), err
}
