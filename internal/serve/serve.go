// Package serve is the tree-construction service layer behind the
// bmstreed daemon: a stdlib-only HTTP/JSON front end over the
// internal/engine constructor registry, built for sustained concurrent
// traffic.
//
// The package composes the library pieces that already exist into a
// serving pipeline:
//
//   - dispatch: every net of a POST /v1/build batch resolves its
//     constructor through the engine registry, so the daemon serves all
//     registered algorithms with no per-algorithm code;
//   - deadlines: each request runs under a context deadline (client
//     requested, server clamped) that the construction loops poll via
//     internal/cancel stride checkers, so a cancelled build stops
//     mid-scan, not at the next net;
//   - admission: a bounded worker-slot gate with a bounded waiting
//     queue; a saturated daemon sheds with 429 + Retry-After instead of
//     letting latency grow without bound;
//   - reuse: an LRU instance cache keyed by point-set hash pins one
//     core.Scratch per resident instance, so repeated requests for the
//     same net re-serve the partially drained sorted-edge prefix
//     instead of re-sorting O(n²) edges, and ε-sweeps run through
//     engine.Sweep on that same scratch, so a sweep's sorted prefix
//     serves the next request for its net;
//   - codec: a build body in the canonical form is parsed in one pass
//     and the 200 body appended by hand, each byte for byte what
//     encoding/json reads and writes; any other body is decoded by
//     encoding/json itself (codec.go);
//   - observation: every admission decision and build lands in an
//     internal/obs registry served at /metrics, with /debug/pprof for
//     profiles.
//
// Handlers are plain http.Handler values (see Server.Handler), so the
// whole pipeline is unit-testable with httptest; cmd/bmstreed is a thin
// flag-parsing main around this package. SERVING.md is the operator
// runbook and API reference; DESIGN.md §11 documents the architecture
// and the determinism contract (same request body → byte-identical
// response body, regardless of the admission worker count).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cancel"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Defaults for the zero Config fields. SERVING.md's tuning section
// explains how to size each for a deployment.
const (
	DefaultQueue     = 64
	DefaultCacheSize = 32
	DefaultMaxBatch  = 256
	DefaultMaxPoints = 2048
	DefaultMaxSweep  = 64
	DefaultTimeout   = 5 * time.Second
	DefaultMaxWait   = 60 * time.Second
	DefaultMaxBody   = 8 << 20
)

// Config sizes the serving pipeline. The zero value of every field is a
// usable default; negative Queue and CacheSize mean "none" (shed when
// all workers are busy / retain no instances).
type Config struct {
	// Registry resolves constructor names; nil means engine.Default().
	Registry *engine.Registry
	// Workers bounds concurrently building requests. 0 means
	// runtime.GOMAXPROCS.
	Workers int
	// Queue bounds requests waiting for a worker slot beyond Workers.
	// 0 means DefaultQueue; negative means no queue (immediate shed).
	Queue int
	// CacheSize bounds resident instance-cache entries (each pins O(n²)
	// sorted-edge state). 0 means DefaultCacheSize; negative disables
	// the cache.
	CacheSize int
	// CacheBytes additionally bounds the accounted bytes resident in the
	// instance cache (instance geometry caches plus scratch buffers,
	// re-measured after every build). 0 or negative means unbounded —
	// the historical entry-count-only behavior.
	CacheBytes int64
	// MaxBatch bounds nets per request (0 = DefaultMaxBatch).
	MaxBatch int
	// MaxPoints bounds terminals per net (0 = DefaultMaxPoints).
	MaxPoints int
	// MaxSweep bounds eps_sweep values per net (0 = DefaultMaxSweep).
	MaxSweep int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (0 = the DefaultTimeout constant).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (0 = DefaultMaxWait).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body (0 = DefaultMaxBody).
	MaxBodyBytes int64
	// Obs receives the serve-scope metrics plus every construction
	// layer's scopes; nil means a fresh private registry (so /metrics
	// always serves something).
	Obs *obs.Registry
}

// Server is the serving pipeline: admission gate, instance cache, and
// the HTTP handlers. Construct with New; the zero value is not usable.
type Server struct {
	reg   *engine.Registry
	obsd  *obs.Registry
	scope *obs.Scope
	c     *Counters

	gate  *gate
	cache *instCache

	maxBatch       int
	maxPoints      int
	maxSweep       int
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxBody        int64

	draining atomic.Bool
}

// New builds a Server from cfg, resolving zero fields to the documented
// defaults.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = engine.Default()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := cfg.Queue
	switch {
	case queue == 0:
		queue = DefaultQueue
	case queue < 0:
		queue = 0
	}
	cacheSize := cfg.CacheSize
	switch {
	case cacheSize == 0:
		cacheSize = DefaultCacheSize
	case cacheSize < 0:
		cacheSize = 0
	}
	s := &Server{
		reg:            reg,
		gate:           newGate(workers, queue),
		cache:          newInstCache(cacheSize, cfg.CacheBytes),
		maxBatch:       orDefault(cfg.MaxBatch, DefaultMaxBatch),
		maxPoints:      orDefault(cfg.MaxPoints, DefaultMaxPoints),
		maxSweep:       orDefault(cfg.MaxSweep, DefaultMaxSweep),
		defaultTimeout: orDefaultDur(cfg.DefaultTimeout, DefaultTimeout),
		maxTimeout:     orDefaultDur(cfg.MaxTimeout, DefaultMaxWait),
		maxBody:        DefaultMaxBody,
	}
	if cfg.MaxBodyBytes > 0 {
		s.maxBody = cfg.MaxBodyBytes
	}
	s.obsd = cfg.Obs
	if s.obsd == nil {
		s.obsd = obs.NewRegistry()
	}
	s.scope = s.obsd.Scope(ScopeName)
	s.c = NewCounters(s.scope)
	if s.c != nil {
		s.c.Workers.Set(float64(s.gate.workers()))
		s.c.QueueLimit.Set(float64(s.gate.queueLimit()))
	}
	return s
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func orDefaultDur(v, def time.Duration) time.Duration {
	if v <= 0 {
		return def
	}
	return v
}

// Obs returns the registry the server records into (the one served at
// /metrics).
func (s *Server) Obs() *obs.Registry { return s.obsd }

// StartDrain flips the server into draining mode: /healthz turns 503
// (load balancers stop routing here) and new builds are rejected with
// 503, while requests already admitted run to completion. Pair with
// http.Server.Shutdown, which waits for the in-flight handlers.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the daemon's full route table:
//
//	POST /v1/build     batch tree construction
//	GET  /v1/algos     the constructor registry
//	GET  /healthz      liveness / drain state
//	GET  /metrics      obs snapshot (JSON)
//	     /debug/pprof  runtime profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/build", s.handleBuild)
	mux.HandleFunc("GET /v1/algos", s.handleAlgos)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON encodes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The response status is already on the wire; an encode failure here
	// means the client went away, and there is nothing left to tell it.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with the uniform error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// timeoutFor resolves the effective request deadline: the client's
// timeout_ms if given, else the server default, clamped to the maximum.
func (s *Server) timeoutFor(ms int64) time.Duration {
	d := s.defaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.maxTimeout {
		d = s.maxTimeout
	}
	return d
}

// validate checks the whole batch up front — limits, metric and
// constructor resolution — so a malformed request is rejected with 400
// before it costs a worker slot.
func (s *Server) validate(req *BuildRequest) ([]checkedNet, error) {
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	if len(req.Nets) == 0 {
		return nil, errors.New("request has no nets")
	}
	if len(req.Nets) > s.maxBatch {
		return nil, fmt.Errorf("batch of %d nets exceeds the limit of %d", len(req.Nets), s.maxBatch)
	}
	out := make([]checkedNet, len(req.Nets))
	for i := range req.Nets {
		n := &req.Nets[i]
		label := n.netLabel(i)
		m, err := parseMetric(n.Metric)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", label, err)
		}
		if len(n.Sinks) == 0 {
			return nil, fmt.Errorf("%s: needs at least one sink", label)
		}
		if len(n.Sinks)+1 > s.maxPoints {
			return nil, fmt.Errorf("%s: %d terminals exceed the limit of %d", label, len(n.Sinks)+1, s.maxPoints)
		}
		if len(n.EpsSweep) > s.maxSweep {
			return nil, fmt.Errorf("%s: eps_sweep of %d values exceeds the limit of %d", label, len(n.EpsSweep), s.maxSweep)
		}
		ctor, err := s.reg.Lookup(n.Algo)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", label, err)
		}
		out[i] = checkedNet{req: n, label: label, ctor: ctor, metric: m}
	}
	return out, nil
}

// handleBuild is POST /v1/build: validate, admit, build every net under
// the request deadline, answer with the batch results. Status mapping
// (documented with worked examples in SERVING.md):
//
//	200 every net built;
//	400 malformed body, unknown algo/metric, limits exceeded, or an
//	    unbuildable net (e.g. an infeasible Steiner instance);
//	408 the request deadline expired (queued or mid-build);
//	429 admission queue full — load shed, retry after Retry-After;
//	503 the daemon is draining for shutdown.
func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if s.c != nil {
		s.c.Requests.Inc()
	}
	var stopReq func()
	if s.c != nil {
		stopReq = s.c.Request.Start()
	}
	defer func() {
		if stopReq != nil {
			stopReq()
		}
	}()

	if s.draining.Load() {
		if s.c != nil {
			s.c.DrainRejects.Inc()
		}
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	var req BuildRequest
	if err := s.decodeBuild(w, r, &req); err != nil {
		s.badRequest(w, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	nets, err := s.validate(&req)
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	resp, ok := s.buildBatch(w, r, &req, nets)
	if !ok {
		return
	}
	if s.c != nil {
		s.c.RequestsOK.Inc()
	}
	s.writeBuild(w, &resp)
}

// buildBatch admits the request and builds its nets in order under the
// request deadline. The deadline starts here, set by the decoded
// timeout_ms, and covers the admission wait and the builds; decoding
// comes before it and the 200 body, written whole, after the worker
// slot is released. On failure buildBatch has answered the request.
func (s *Server) buildBatch(w http.ResponseWriter, r *http.Request, req *BuildRequest, nets []checkedNet) (BuildResponse, bool) {
	ctx, cancelTimeout := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancelTimeout()

	release, err := s.gate.acquire(ctx)
	if err != nil {
		s.admissionError(w, err)
		return BuildResponse{}, false
	}
	defer release()

	resp := BuildResponse{Results: make([]NetResult, len(nets))}
	chk := cancel.New(ctx, 1)
	for i := range nets {
		if err := chk.Err(); err != nil {
			s.netError(w, nets[i].label, err)
			return BuildResponse{}, false
		}
		nr, err := s.buildNet(ctx, nets[i])
		if err != nil {
			s.netError(w, nets[i].label, err)
			return BuildResponse{}, false
		}
		resp.Results[i] = nr
	}
	return resp, true
}

// decodeBuild reads the capped request body once and decodes it, timed
// as the decode phase.
func (s *Server) decodeBuild(w http.ResponseWriter, r *http.Request, req *BuildRequest) error {
	if s.c != nil {
		defer s.c.Decode.Start()()
	}
	buf := getBuf()
	defer putBuf(buf)
	fast, err := decodeRequest(http.MaxBytesReader(w, r.Body, s.maxBody), s.maxBody, buf, req)
	if !fast && s.c != nil {
		s.c.DecodeFallbacks.Inc()
	}
	return err
}

// writeBuild answers 200 with resp in one Write, as writeJSON would,
// timed as the encode phase.
func (s *Server) writeBuild(w http.ResponseWriter, resp *BuildResponse) {
	if s.c != nil {
		defer s.c.Encode.Start()()
	}
	buf := getBuf()
	defer putBuf(buf)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	b, ok := appendBuildResponse(*buf, resp)
	*buf = b
	// A non-finite float has no JSON form: like encoding/json, write no
	// body. A failed Write means the client went away.
	if ok {
		_, _ = w.Write(b)
	}
}

// badRequest answers 400 and counts it.
func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	if s.c != nil {
		s.c.BadRequests.Inc()
	}
	writeError(w, http.StatusBadRequest, msg)
}

// admissionError maps an admission failure onto its status: queue full
// sheds with 429 + Retry-After, a deadline that expired while queued is
// 408, a vanished client is counted separately.
func (s *Server) admissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		if s.c != nil {
			s.c.Shed.Inc()
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "build queue is full; retry later")
	case errors.Is(err, context.DeadlineExceeded):
		if s.c != nil {
			s.c.Timeouts.Inc()
		}
		writeError(w, http.StatusRequestTimeout, "deadline exceeded while queued")
	default:
		if s.c != nil {
			s.c.Canceled.Inc()
		}
		writeError(w, http.StatusRequestTimeout, "request canceled while queued")
	}
}

// netError maps a per-net build failure: deadline → 408, client gone →
// counted canceled, anything else — infeasible bounds, invalid
// coordinates, budget exhaustion — is a property of the requested net,
// i.e. a client error, 400.
func (s *Server) netError(w http.ResponseWriter, label string, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if s.c != nil {
			s.c.Timeouts.Inc()
		}
		writeError(w, http.StatusRequestTimeout, fmt.Sprintf("deadline exceeded building %s", label))
	case errors.Is(err, context.Canceled):
		if s.c != nil {
			s.c.Canceled.Inc()
		}
		writeError(w, http.StatusRequestTimeout, fmt.Sprintf("request canceled building %s", label))
	default:
		s.badRequest(w, fmt.Sprintf("%s: %v", label, err))
	}
}

// buildNet builds one net of the batch through the instance cache.
func (s *Server) buildNet(ctx context.Context, cn checkedNet) (NetResult, error) {
	n := cn.req
	sinks := make([]geom.Point, len(n.Sinks))
	for i, p := range n.Sinks {
		sinks[i] = geom.Point{X: p.X, Y: p.Y}
	}
	//lint:ignore ctxflow cache lookup scans an O(collisions) hash bucket, not instance-sized work
	entry, hit, err := s.cache.lookup(cn.metric, geom.Point{X: n.Source.X, Y: n.Source.Y}, sinks)
	if err != nil {
		return NetResult{}, err
	}
	if s.c != nil {
		if hit {
			s.c.CacheHits.Inc()
		} else {
			s.c.CacheMisses.Inc()
		}
	}
	var stopBuild func()
	if sc := s.scope; sc != nil {
		stopBuild = sc.Timer(BuildTimerName(n.Algo)).Start()
	}
	trees, err := s.buildTrees(ctx, cn, entry)
	if stopBuild != nil {
		stopBuild()
	}
	if err != nil {
		return NetResult{}, err
	}
	if s.c != nil {
		s.c.Builds.Add(int64(len(trees)))
	}
	return NetResult{
		Name:     n.Name,
		Algo:     n.Algo,
		Kind:     cn.ctor.Kind().String(),
		CacheHit: hit,
		Trees:    trees,
	}, nil
}

// buildTrees holds the cache entry's lock (scratch and lazy distance
// matrix are single-holder state) and runs either a single build or an
// eps_sweep through engine.Sweep, both pinned to the entry's scratch.
func (s *Server) buildTrees(ctx context.Context, cn checkedNet, entry *cacheEntry) ([]TreeResult, error) {
	entry.mu.Lock()
	defer entry.mu.Unlock()
	// Re-measure the entry after the build (deferred last → runs first,
	// still under entry.mu): lazy geometry caches and scratch buffers
	// grow during a build, and the byte-budget eviction needs the grown
	// size, not the insert-time size.
	defer func() {
		s.cache.reaccount(entry, entry.in.MemBytes()+entry.scratch.MemBytes())
	}()
	n := cn.req

	if len(n.EpsSweep) == 0 {
		p := n.params()
		p.Obs = s.obsd
		p.Scratch = &entry.scratch
		res, err := cn.ctor.Build(ctx, entry.in, p)
		if err != nil {
			return nil, err
		}
		//lint:ignore ctxflow response encoding runs after the build completed; the result must be written whole
		tr, err := encodeResult(n.Eps, entry.in, res)
		if err != nil {
			return nil, err
		}
		return []TreeResult{tr}, nil
	}

	base := n.params()
	base.Obs = s.obsd
	base.Scratch = &entry.scratch
	ps := make([]engine.Params, len(n.EpsSweep))
	for j, eps := range n.EpsSweep {
		p := base
		p.Eps = eps
		ps[j] = p
	}
	results, err := s.reg.Sweep(ctx, n.Algo, entry.in, ps)
	if err != nil {
		return nil, err
	}
	out := make([]TreeResult, len(results))
	chk := cancel.New(ctx, 1)
	for j, res := range results {
		if err := chk.Err(); err != nil {
			return nil, err
		}
		if out[j], err = encodeResult(n.EpsSweep[j], entry.in, res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// handleAlgos is GET /v1/algos: the engine registry as JSON.
func (s *Server) handleAlgos(w http.ResponseWriter, _ *http.Request) {
	infos := s.reg.List()
	resp := AlgosResponse{Algos: make([]AlgoInfo, len(infos))}
	for i, info := range infos {
		resp.Algos[i] = AlgoInfo{
			Name:   info.Name,
			Kind:   info.Kind.String(),
			Params: info.Needs,
			Doc:    info.Doc,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is GET /healthz: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics is GET /metrics: refresh the admission gauges and serve
// the obs snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.refreshGauges()
	w.Header().Set("Content-Type", "application/json")
	// Snapshot encoding only fails when the client disconnects
	// mid-write; there is no one left to report to.
	_ = s.obsd.Snapshot().WriteJSON(w)
}

// refreshGauges publishes the current admission and cache occupancy.
func (s *Server) refreshGauges() {
	if s.c == nil {
		return
	}
	s.c.QueueDepth.Set(float64(s.gate.waiting()))
	s.c.Inflight.Set(float64(s.gate.active()))
	s.c.CacheEntries.Set(float64(s.cache.len()))
	s.c.CacheBytes.Set(float64(s.cache.bytes()))
}
