package serve

import (
	"repro/internal/obs"
)

// ScopeName is the obs scope the serving layer records into; see
// OBSERVABILITY.md for the catalogue and SERVING.md for how each metric
// maps onto an HTTP status.
const ScopeName = "serve"

// Serve metric names (scope "serve"). Counters accumulate over the
// daemon's lifetime; gauges describe the current admission state and
// are refreshed on every /metrics scrape.
const (
	CtrRequests        = "requests"         // /v1/build requests received
	CtrRequestsOK      = "requests_ok"      // requests answered 200
	CtrBadRequests     = "bad_requests"     // requests answered 400
	CtrShed            = "shed"             // requests answered 429 (queue full)
	CtrTimeouts        = "timeouts"         // requests answered 408 (deadline exceeded)
	CtrCanceled        = "canceled"         // requests aborted by client disconnect
	CtrDrainRejects    = "drain_rejects"    // requests answered 503 (draining)
	CtrBuilds          = "builds"           // individual tree constructions (sweep cells count each)
	CtrCacheHits       = "cache_hits"       // nets served from a cached instance entry
	CtrCacheMisses     = "cache_misses"     // nets that created (or bypassed) a cache entry
	CtrDecodeFallbacks = "decode_fallbacks" // /v1/build bodies not in the canonical form, decoded by encoding/json

	GaugeWorkers      = "workers"       // configured worker-slot count
	GaugeQueueLimit   = "queue_limit"   // configured queue depth
	GaugeQueueDepth   = "queue_depth"   // requests currently waiting for a slot
	GaugeInflight     = "inflight"      // requests currently holding a slot
	GaugeCacheEntries = "cache_entries" // instance-cache entries resident
	GaugeCacheBytes   = "cache_bytes"   // accounted bytes resident in the instance cache

	TimerRequest = "request_seconds" // whole /v1/build request, admission wait included
	TimerDecode  = "decode_seconds"  // reading and decoding a /v1/build body, 400s included
	TimerEncode  = "encode_seconds"  // encoding and writing a /v1/build 200 body
)

// BuildTimerName returns the per-algorithm build timer name, e.g.
// "build_bkrus_seconds" — one timer per constructor name actually
// served, created on first use.
func BuildTimerName(algo string) string { return "build_" + algo + "_seconds" }

// Counters is the serving layer's obs-backed instrument set. Like the
// construction layers' counter sets, every recording call site is
// gated on the set pointer so the handlers stay one pointer test when
// observation is off.
type Counters struct {
	Requests        *obs.Counter
	RequestsOK      *obs.Counter
	BadRequests     *obs.Counter
	Shed            *obs.Counter
	Timeouts        *obs.Counter
	Canceled        *obs.Counter
	DrainRejects    *obs.Counter
	Builds          *obs.Counter
	CacheHits       *obs.Counter
	CacheMisses     *obs.Counter
	DecodeFallbacks *obs.Counter

	Workers      *obs.Gauge
	QueueLimit   *obs.Gauge
	QueueDepth   *obs.Gauge
	Inflight     *obs.Gauge
	CacheEntries *obs.Gauge
	CacheBytes   *obs.Gauge

	Request *obs.Timer
	Decode  *obs.Timer
	Encode  *obs.Timer
}

// NewCounters resolves the serve instrument set inside sc (nil sc
// yields a standalone set not attached to any registry).
func NewCounters(sc *obs.Scope) *Counters {
	return &Counters{
		Requests:        sc.Counter(CtrRequests),
		RequestsOK:      sc.Counter(CtrRequestsOK),
		BadRequests:     sc.Counter(CtrBadRequests),
		Shed:            sc.Counter(CtrShed),
		Timeouts:        sc.Counter(CtrTimeouts),
		Canceled:        sc.Counter(CtrCanceled),
		DrainRejects:    sc.Counter(CtrDrainRejects),
		Builds:          sc.Counter(CtrBuilds),
		CacheHits:       sc.Counter(CtrCacheHits),
		CacheMisses:     sc.Counter(CtrCacheMisses),
		DecodeFallbacks: sc.Counter(CtrDecodeFallbacks),

		Workers:      sc.Gauge(GaugeWorkers),
		QueueLimit:   sc.Gauge(GaugeQueueLimit),
		QueueDepth:   sc.Gauge(GaugeQueueDepth),
		Inflight:     sc.Gauge(GaugeInflight),
		CacheEntries: sc.Gauge(GaugeCacheEntries),
		CacheBytes:   sc.Gauge(GaugeCacheBytes),

		Request: sc.Timer(TimerRequest),
		Decode:  sc.Timer(TimerDecode),
		Encode:  sc.Timer(TimerEncode),
	}
}
