package core

import "repro/internal/obs"

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
// (pass it through Config.Counters and read it after the build).
type Counters struct {
	EdgesExamined   *obs.Counter // candidate edges popped from the sorted list
	CycleRejections *obs.Counter // condition (2): endpoints already connected
	BoundRejections *obs.Counter // condition (3): merge would break the bound
	LemmaRejections *obs.Counter // Lemma 6.1: direct source edge below the lower bound
	Merges          *obs.Counter // accepted edges (always N-1 on success)
	WitnessScans    *obs.Counter // live members read by (3-b) witness scans
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
