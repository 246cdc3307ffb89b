package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// serveCfg describes the serving workload: one closed-loop client sends
// single-net requests from a fixed pool. One client leaves a vCPU of a
// two-vCPU host spare, so a neighbour taking a core does not halve the
// loop (README.md, "Why one client").
type serveCfg struct {
	// pool is the number of requests generated in set-up. Every run
	// sends the whole pool at least once (the digest and cost ratio
	// cover exactly that first pass) and cycles it until the deadline.
	pool int
	// Fresh bkrus nets draw log-uniform sink counts from this range;
	// fresh bkst nets draw uniformly from 2..bkstMax.
	minSinks, maxSinks, bkstMax int
	// Shares of the mix; the rest are fresh single-eps bkrus nets.
	bkstShare, sweepShare, repeatShare float64
	// recent is how many of the latest fresh nets a repeat picks from;
	// it is well inside the daemon's default 32-entry instance cache.
	recent int
	tailQ  float64
}

// serveReq is one pre-encoded request of the schedule.
type serveReq struct {
	body []byte
	net  int // index into serveLoop.nets
	algo string
	eps  []float64 // the eps of each tree the response must carry
}

// JSON shapes of the /v1/build API, declared here so the benchmark
// reads the wire format rather than the daemon's own types.
type apiPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type apiNet struct {
	Source   apiPoint   `json:"source"`
	Sinks    []apiPoint `json:"sinks"`
	Algo     string     `json:"algo"`
	Eps      float64    `json:"eps,omitempty"`
	EpsSweep []float64  `json:"eps_sweep,omitempty"`
}

type apiRequest struct {
	Nets []apiNet `json:"nets"`
}

type apiResponse struct {
	Results []struct {
		Trees []struct {
			Eps   float64 `json:"eps"`
			Edges []struct {
				U int     `json:"u"`
				V int     `json:"v"`
				W float64 `json:"w"`
			} `json:"edges"`
			Wires []struct {
				From apiPoint `json:"from"`
				To   apiPoint `json:"to"`
				Len  float64  `json:"len"`
			} `json:"wires"`
		} `json:"trees"`
	} `json:"results"`
}

// encodeRequest builds the body of a one-net request.
func encodeRequest(n netSpec, algo string, eps float64, sweep []float64) []byte {
	net := apiNet{Source: apiPoint{n.src.X, n.src.Y}, Algo: algo, Eps: eps, EpsSweep: sweep}
	for _, s := range n.sinks {
		net.Sinks = append(net.Sinks, apiPoint{s.X, s.Y})
	}
	body, err := json.Marshal(apiRequest{Nets: []apiNet{net}})
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return body
}

// schedule generates the request mix: fresh bkrus, bkst and eps-sweep
// nets, plus repeats of a recent net at another eps. shape draws the
// kinds, sizes and eps values; terms draws the terminals.
func schedule(cfg serveCfg, shape, terms *rand.Rand, total int) ([]netSpec, []serveReq) {
	var nets []netSpec
	reqs := make([]serveReq, total)
	for i := range reqs {
		eps := epsCycle[shape.Intn(len(epsCycle))]
		u := shape.Float64()
		switch {
		case u < cfg.repeatShare && len(nets) > 0:
			prev := reqs[i-1-shape.Intn(min(i, cfg.recent))]
			n := nets[prev.net]
			for eps == prev.eps[0] {
				eps = epsCycle[shape.Intn(len(epsCycle))]
			}
			reqs[i] = serveReq{encodeRequest(n, prev.algo, eps, nil), prev.net, prev.algo, []float64{eps}}
		case u < cfg.repeatShare+cfg.bkstShare:
			nets = append(nets, randomNet(terms, 2+shape.Intn(cfg.bkstMax-1), eps))
			reqs[i] = serveReq{encodeRequest(nets[len(nets)-1], "bkst", eps, nil), len(nets) - 1, "bkst", []float64{eps}}
		case u < cfg.repeatShare+cfg.bkstShare+cfg.sweepShare:
			nets = append(nets, randomNet(terms, logUniform(shape, cfg.minSinks, cfg.maxSinks), eps))
			reqs[i] = serveReq{encodeRequest(nets[len(nets)-1], "bkrus", 0, epsCycle), len(nets) - 1, "bkrus", epsCycle}
		default:
			nets = append(nets, randomNet(terms, logUniform(shape, cfg.minSinks, cfg.maxSinks), eps))
			reqs[i] = serveReq{encodeRequest(nets[len(nets)-1], "bkrus", eps, nil), len(nets) - 1, "bkrus", []float64{eps}}
		}
	}
	return nets, reqs
}

// daemon is a bmstreed child process listening on loopback.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	http *http.Client
}

// startDaemon runs the bmstreed binary with default flags, except that
// it listens on a free loopback port, and waits until /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // a stale file from an earlier start would name a dead port
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bmstreed: %w", err)
	}
	d := &daemon{cmd: cmd, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableCompression: true},
	}}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("bmstreed did not become healthy within 20s")
		}
		if d.url == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
				continue
			}
			d.url = "http://" + strings.TrimSpace(string(b))
		}
		if resp, err := d.http.Get(d.url + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
}

// stop asks the daemon to drain and waits for it to exit, killing it if
// the drain overruns.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a signalled daemon is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.http.CloseIdleConnections()
}

// post sends one build request and returns the status and body.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.http.Post(d.url+"/v1/build", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metrics scrapes GET /metrics.
func (d *daemon) metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := d.http.Get(d.url + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// memStats reads the daemon's cumulative allocation and GC count from
// the runtime.MemStats trailer of its heap profile.
func (d *daemon) memStats() (alloc, gcs float64, err error) {
	resp, err := d.http.Get(d.url + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			alloc, err = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(sc.Text(), "# NumGC = "); ok {
			gcs, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return alloc, gcs, sc.Err()
}

// procStat returns a process's user+system CPU and peak resident set
// from /proc.
func procStat(pid int) (cpu time.Duration, hwmKB int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwmKB, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, hwmKB, err
}

// serveLoop is a set-up serving workload: the request pool is
// generated and encoded, and the daemon is up and warmed.
type serveLoop struct {
	cfg  serveCfg
	nets []netSpec
	reqs []serveReq
	d    *daemon
	mst  map[int]float64
	// Per pool entry, filled on the first pass: the answer's digest;
	// later passes must get the same trees back.
	answerSum []string
}

func newServeLoop(cfg serveCfg, seed int64, bin, dir string) (*serveLoop, error) {
	shape, terms := rand.New(rand.NewSource(shapeSeed)), rand.New(rand.NewSource(seed))
	w := &serveLoop{cfg: cfg, mst: map[int]float64{}, answerSum: make([]string, cfg.pool)}
	w.nets, w.reqs = schedule(cfg, shape, terms, cfg.pool)
	warm := randomNet(shape, cfg.maxSinks, epsCycle[1])
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	w.d = d
	// One untimed warm-up request through the whole daemon path.
	if code, body, err := d.post(encodeRequest(warm, "bkrus", warm.eps, nil)); err != nil || code != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("warm-up request: status %d, %v: %s", code, err, body)
	}
	return w, nil
}

func (w *serveLoop) close() { w.d.stop() }

// outcome is one request as the client saw it.
type outcome struct {
	due, send, done time.Time
	status          int
	body            []byte
	err             error
}

// drive sends requests 0, 1, … (cycling the pool) until more(i) is
// false, from one closed-loop client: the next request goes out as soon
// as the previous answer is read. A request is due when the previous
// one was answered, so send−due is the client's own delay.
func (w *serveLoop) drive(reqs []serveReq, more func(i int) bool) []outcome {
	var out []outcome
	due := time.Now()
	for i := 0; more(i); i++ {
		o := outcome{due: due, send: time.Now()}
		o.status, o.body, o.err = w.d.post(reqs[i%len(reqs)].body)
		o.done = time.Now()
		out = append(out, o)
		due = o.done
	}
	return out
}

// servePhase is what one pass of the loop measured.
type servePhase struct {
	// ms: due→done, due→send, send→done
	lat, late, inside []float64
	nets, fail        int
	wall              time.Duration
	cpu               time.Duration // the daemon's
	cost, mst         float64       // over the first pass of the pool
	dig               *digest       // over the first pass of the pool, nil if incomplete
	bkst, bkTrees     int
	errs              []string
}

// phase drives requests until more(i) is false and then, untimed,
// checks every response.
func (w *serveLoop) phase(reqs []serveReq, more func(i int) bool, tr *tracer) (servePhase, error) {
	var ph servePhase
	cpu0, _, err := procStat(w.d.cmd.Process.Pid)
	if err != nil {
		return ph, err
	}
	start := time.Now()
	out := w.drive(reqs, more)
	ph.wall = time.Since(start)
	cpu1, _, err := procStat(w.d.cmd.Process.Pid)
	if err != nil {
		return ph, err
	}
	ph.cpu = cpu1 - cpu0
	ph.dig = newDigest()
	for i, o := range out {
		ph.nets++
		ph.lat = append(ph.lat, ms(o.done.Sub(o.due)))
		ph.late = append(ph.late, ms(o.send.Sub(o.due)))
		ph.inside = append(ph.inside, ms(o.done.Sub(o.send)))
		if root := tr.add("request", i, -1, o.due, o.done); tr != nil {
			tr.add("send_wait", i, root, o.due, o.send)
		}
		if err := w.verify(reqs, i, o, &ph); err != nil {
			ph.fail++
			ph.errs = append(ph.errs, fmt.Sprintf("request %d: %v", i, err))
		}
	}
	if ph.nets < len(reqs) {
		ph.dig = nil
	}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// verify rebuilds every tree of one response from its edges or wires
// and checks it against the request's terminals. The first pass over
// the pool goes into the digest and the cost; later passes must
// return the same trees.
func (w *serveLoop) verify(reqs []serveReq, i int, o outcome, ph *servePhase) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	var resp apiResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	k := i % len(reqs)
	r := reqs[k]
	if len(resp.Results) != 1 || len(resp.Results[0].Trees) != len(r.eps) {
		return fmt.Errorf("response shape: %d results", len(resp.Results))
	}
	n := w.nets[r.net]
	ref, ok := w.mst[r.net]
	if !ok {
		var err error
		if ref, err = mstCost(n); err != nil {
			return err
		}
		w.mst[r.net] = ref
	}
	one := newDigest()
	var cost float64
	for j, t := range resp.Results[0].Trees {
		if t.Eps != r.eps[j] {
			return fmt.Errorf("tree %d has eps %v, want %v", j, t.Eps, r.eps[j])
		}
		var c float64
		var err error
		if r.algo == "bkst" {
			wires := make([]wire, len(t.Wires))
			for k, x := range t.Wires {
				wires[k] = wire{pt(x.From), pt(x.To), x.Len}
			}
			c, err = checkSteiner(n.pts, wires, t.Eps)
			one.steiner(t.Eps, wires)
		} else {
			edges := make([]edge, len(t.Edges))
			for k, e := range t.Edges {
				edges[k] = edge{e.U, e.V, e.W}
			}
			c, err = checkSpanning(n.pts, edges, t.Eps)
			one.spanning(t.Eps, edges)
			ph.bkTrees++
		}
		if err != nil {
			return err
		}
		cost += c
	}
	if r.algo == "bkst" {
		ph.bkst++
	}
	sum := one.sum()
	if w.answerSum[k] == "" {
		w.answerSum[k] = sum
	} else if w.answerSum[k] != sum {
		return fmt.Errorf("answer to pool request %d differs from its first answer", k)
	}
	if i < len(reqs) {
		ph.dig.add(sum)
		ph.cost += cost
		ph.mst += ref * float64(len(r.eps))
	}
	return nil
}

// steinerCounters are the per-bkst-net counts reported from the
// steiner scope.
var steinerCounters = []string{steiner.CtrCandidatesExamined, steiner.CtrEmbeds, steiner.CtrEmbedCollisions, steiner.CtrSteinerPointsAdded}

// run measures the workload for the given time. Untraced, it cycles
// the pool until the deadline, covering it at least once. Traced, it
// first sends requests untraced for half the time (and at least the
// whole pool), then replays the same requests traced, and /metrics is
// scraped around the traced replay for the daemon's layer counts.
func (w *serveLoop) run(seconds float64, tr *tracer) (*report, error) {
	rep := &report{}
	if tr == nil {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		ph, err := w.phase(w.reqs, func(i int) bool { return i < len(w.reqs) || time.Now().Before(deadline) }, nil)
		if err != nil {
			return nil, err
		}
		rep.count(ph.nets, ph.fail, ph.errs)
		tail, ok := percentile(ph.lat, w.cfg.tailQ)
		if !ok {
			return nil, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", w.cfg.tailQ*100, len(ph.lat), minBeyond)
		}
		_, hwm, err := procStat(w.d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rep.set("nets_per_s", "1/s", float64(ph.nets-ph.fail)/ph.wall.Seconds(), ph.nets)
		rep.set("latency_p50_ms", "ms", median(ph.lat), len(ph.lat))
		rep.set("latency_tail_ms", "ms", tail, len(ph.lat))
		rep.note("latency_tail_ms is p%g", w.cfg.tailQ*100)
		rep.set("cpu_s_per_net", "s", ph.cpu.Seconds()/float64(ph.nets), ph.nets)
		rep.set("peak_rss_mb", "MB", float64(hwm)/1024, 1)
		rep.set("cost_ratio", "ratio", ph.cost/ph.mst, len(w.reqs))
		rep.digest, rep.digestN = ph.dig.sum(), len(w.reqs)
		return rep, nil
	}

	half := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	a, err := w.phase(w.reqs, func(i int) bool { return i < len(w.reqs) || time.Now().Before(half) }, nil)
	if err != nil {
		return nil, err
	}
	s0, err := w.d.metrics()
	if err != nil {
		return nil, err
	}
	alloc0, gc0, err := w.d.memStats()
	if err != nil {
		return nil, err
	}
	b, err := w.phase(w.reqs, func(i int) bool { return i < a.nets }, tr)
	if err != nil {
		return nil, err
	}
	s1, err := w.d.metrics()
	if err != nil {
		return nil, err
	}
	alloc1, gc1, err := w.d.memStats()
	if err != nil {
		return nil, err
	}
	rep.count(a.nets+b.nets, a.fail+b.fail, append(a.errs, b.errs...))
	if b.dig != nil {
		rep.digest, rep.digestN = b.dig.sum(), len(w.reqs)
	}

	delta := func(scope, name string) float64 { return counterOf(s1, scope, name) - counterOf(s0, scope, name) }
	timerMS := func(name string) (float64, int) {
		n1, t1 := timerOf(s1, "serve", name)
		n0, t0 := timerOf(s0, "serve", name)
		return ratio(t1-t0, n1-n0) * 1e3, int(n1 - n0)
	}
	nets := float64(b.nets)
	total, self, count := tr.layerTimes()
	rep.set("request.ms", "ms", total["request"].Seconds()*1e3/nets, count["request"])
	rep.set("request.self_ms", "ms", self["request"].Seconds()*1e3/nets, count["request"])
	rep.set("loadgen.send_wait_ms", "ms", total["send_wait"].Seconds()*1e3/nets, count["send_wait"])
	late, ok := percentile(b.late, 0.99)
	if !ok {
		return nil, fmt.Errorf("loadgen lateness: %d samples are too few for p99", len(b.late))
	}
	rep.set("loadgen.late_p99_ms", "ms", late, len(b.late))

	reqMS, reqN := timerMS("request_seconds")
	rep.set("serve.request_ms", "ms", reqMS, reqN)
	inside := 0.0
	for _, v := range b.inside {
		inside += v
	}
	rep.set("serve.outside_ms", "ms", inside/nets-reqMS, b.nets)
	for _, algo := range []string{"bkrus", "bkst"} {
		v, n := timerMS("build_" + algo + "_seconds")
		rep.set("serve.build_"+algo+"_ms", "ms", v, n)
	}
	hits, misses := delta("serve", "cache_hits"), delta("serve", "cache_misses")
	rep.set("serve.cache_hit_share", "ratio", ratio(hits, hits+misses), int(hits+misses))
	rep.set("serve.shed", "count", delta("serve", "shed"), b.nets)
	rep.set("serve.timeouts", "count", delta("serve", "timeouts"), b.nets)
	rep.set("serve.cache_bytes", "bytes", gaugeOf(s1, "serve", "cache_bytes"), 1)
	rep.set("engine.sweep_runs", "count", delta(engine.ScopeName, engine.CtrSweepRuns), b.nets)
	for _, name := range steinerCounters {
		rep.set("steiner."+name, "count", ratio(delta(steiner.ScopeName, name), float64(b.bkst)), b.bkst)
	}
	coreLayer(rep, snapshotScope(s0, s1, core.ScopeName), float64(b.bkTrees), b.bkTrees)
	rep.set("runtime.alloc_mb_per_net", "MB", (alloc1-alloc0)/1e6/nets, b.nets)
	rep.set("runtime.gc_cycles_per_net", "count", (gc1-gc0)/nets, b.nets)
	rep.set("trace.overhead_pct", "%", overheadPct(a.lat, b.lat), b.nets)
	return rep, nil
}

func findScope(s obs.Snapshot, scope string) *obs.ScopeSnapshot {
	for i := range s.Scopes {
		if s.Scopes[i].Name == scope {
			return &s.Scopes[i]
		}
	}
	return nil
}

func counterOf(s obs.Snapshot, scope, name string) float64 {
	if sc := findScope(s, scope); sc != nil {
		for _, c := range sc.Counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
	}
	return 0
}

func gaugeOf(s obs.Snapshot, scope, name string) float64 {
	if sc := findScope(s, scope); sc != nil {
		for _, g := range sc.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
	}
	return 0
}

func timerOf(s obs.Snapshot, scope, name string) (count, seconds float64) {
	if sc := findScope(s, scope); sc != nil {
		for _, t := range sc.Timers {
			if t.Name == name {
				return float64(t.Count), t.TotalSeconds
			}
		}
	}
	return 0, 0
}

// snapshotScope rebuilds a scope holding the difference of two
// snapshots' counters and the later gauges, so the closed-loop
// reporting code reads the daemon's counts the same way.
func snapshotScope(s0, s1 obs.Snapshot, scope string) *obs.Scope {
	sc := obs.NewRegistry().Scope(scope)
	if later := findScope(s1, scope); later != nil {
		for _, c := range later.Counters {
			sc.Counter(c.Name).Add(c.Value - int64(counterOf(s0, scope, c.Name)))
		}
		for _, g := range later.Gauges {
			sc.Gauge(g.Name).Set(g.Value)
		}
	}
	return sc
}
