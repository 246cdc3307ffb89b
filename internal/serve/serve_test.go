package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
)

// newTestServer boots a Server over httptest. The caller owns ts.Close.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postBuild(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/build", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/build: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data, resp.Header
}

// counterValue fetches one serve-scope counter from /metrics.
func counterValue(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	for _, sc := range snap.Scopes {
		if sc.Name != ScopeName {
			continue
		}
		for _, c := range sc.Counters {
			if c.Name == name {
				return c.Value
			}
		}
	}
	t.Fatalf("counter %s/%s not in snapshot", ScopeName, name)
	return 0
}

// randomNetJSON renders a seeded random net as request JSON fields.
func randomNetJSON(rng *rand.Rand, sinks int, algo, extra string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"algo":%q,"source":{"x":%g,"y":%g},"sinks":[`, algo, rng.Float64()*100, rng.Float64()*100)
	for i := 0; i < sinks; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"x":%g,"y":%g}`, rng.Float64()*100, rng.Float64()*100)
	}
	b.WriteString("]")
	if extra != "" {
		b.WriteString("," + extra)
	}
	b.WriteString("}")
	return b.String()
}

// TestBuildPinnedAgainstEngine pins the service response against a
// direct engine.Build with the same instance and parameters: the
// daemon must be a transport, never a different construction.
func TestBuildPinnedAgainstEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	src := geom.Point{X: 3, Y: 4}
	sinks := []geom.Point{{X: 50, Y: 0}, {X: 0, Y: 45}, {X: 30, Y: 30}, {X: 12, Y: 41}}
	body := `{"nets":[{"name":"pin","algo":"bkrus","eps":0.25,"metric":"l2",
		"source":{"x":3,"y":4},
		"sinks":[{"x":50,"y":0},{"x":0,"y":45},{"x":30,"y":30},{"x":12,"y":41}]}]}`

	code, data, _ := postBuild(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, data)
	}
	var got BuildResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Results) != 1 || len(got.Results[0].Trees) != 1 {
		t.Fatalf("want 1 result with 1 tree, got %+v", got)
	}

	in, err := inst.New(src, sinks, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeResult(0.25, in, res)

	gotJSON, _ := json.Marshal(got.Results[0].Trees[0])
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("served tree differs from direct engine build:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if got.Results[0].Kind != "spanning" || got.Results[0].Name != "pin" {
		t.Errorf("result header wrong: %+v", got.Results[0])
	}
}

// TestSteinerResponse checks the Steiner branch of the encoding: wires,
// not node-id edges.
func TestSteinerResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"nets":[{"algo":"bkst","eps":0.4,
		"source":{"x":0,"y":0},
		"sinks":[{"x":10,"y":0},{"x":0,"y":10},{"x":8,"y":8}]}]}`
	code, data, _ := postBuild(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, data)
	}
	var got BuildResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	r := got.Results[0]
	if r.Kind != "steiner" || len(r.Trees) != 1 {
		t.Fatalf("want one steiner tree, got %+v", r)
	}
	if len(r.Trees[0].Wires) == 0 || len(r.Trees[0].Edges) != 0 {
		t.Errorf("steiner result must carry wires, not edges: %+v", r.Trees[0])
	}
}

// TestSweepWorkerCountInvariance is the determinism contract of
// DESIGN.md §11: the same request body yields byte-identical response
// bodies whether eps sweeps run serially or on a parallel pool.
func TestSweepWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	body := `{"nets":[` + randomNetJSON(rng, 40, "bkrus", `"eps_sweep":[0,0.1,0.2,0.4,0.8,2]`) + `]}`

	_, serial := newTestServer(t, Config{SweepWorkers: 1})
	_, pooled := newTestServer(t, Config{SweepWorkers: 4})

	c1, b1, _ := postBuild(t, serial.URL, body)
	c2, b2, _ := postBuild(t, pooled.URL, body)
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("statuses %d %d", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("sweep responses differ between 1 and 4 workers:\n%s\n%s", b1, b2)
	}
}

// TestMalformedRequests walks the 400 surface: bad JSON, unknown
// fields, limit violations, unknown names.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2, MaxPoints: 5, MaxSweep: 3})
	net1 := `{"algo":"bkrus","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}`
	cases := []struct {
		name, body string
	}{
		{"invalid json", `{"nets":`},
		{"unknown field", `{"nets":[],"bogus":1}`},
		{"no nets", `{"nets":[]}`},
		{"negative timeout", `{"timeout_ms":-5,"nets":[` + net1 + `]}`},
		{"too many nets", `{"nets":[` + net1 + `,` + net1 + `,` + net1 + `]}`},
		{"no sinks", `{"nets":[{"algo":"bkrus","source":{"x":0,"y":0},"sinks":[]}]}`},
		{"too many points", `{"nets":[{"algo":"bkrus","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1},{"x":2,"y":2},{"x":3,"y":3},{"x":4,"y":4},{"x":5,"y":5}]}]}`},
		{"unknown algo", `{"nets":[{"algo":"nope","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`},
		{"unknown metric", `{"nets":[{"algo":"bkrus","metric":"l7","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`},
		{"oversized sweep", `{"nets":[{"algo":"bkrus","eps_sweep":[0.1,0.2,0.3,0.4],"source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`},
		{"negative workers", `{"nets":[{"algo":"bkrus","workers":-1,"source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`},
		{"oversized workers", `{"nets":[{"algo":"bkrus","workers":65,"source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`},
		{"retired workers field", `{"nets":[{"algo":"bkrus","workers":2,"source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`},
	}
	for _, c := range cases {
		code, data, _ := postBuild(t, ts.URL, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", c.name, code, data)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: 400 body is not an error document: %s", c.name, data)
		}
	}
	if got := counterValue(t, ts.URL, CtrBadRequests); got != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", got, len(cases))
	}
}

// blockingRegistry registers a "block" constructor that parks until its
// gate channel closes (or the context dies), plus a trivial "quick"
// constructor, so admission behaviour is deterministic in tests.
func blockingRegistry(proceed <-chan struct{}) *engine.Registry {
	reg := engine.NewRegistry()
	star := func(in *inst.Instance) *graph.Tree {
		tr := graph.NewTree(in.N())
		dm := in.DistMatrix()
		for v := 1; v < in.N(); v++ {
			tr.AddEdge(0, v, dm.At(0, v))
		}
		return tr
	}
	reg.Register(engine.Info{Name: "block", Kind: engine.Spanning, Doc: "parks until released"},
		func(ctx context.Context, in *inst.Instance, p engine.Params) (engine.Result, error) {
			select {
			case <-proceed:
				return engine.Result{Tree: star(in)}, nil
			case <-ctx.Done():
				return engine.Result{}, ctx.Err()
			}
		})
	reg.Register(engine.Info{Name: "quick", Kind: engine.Spanning, Doc: "immediate star"},
		func(ctx context.Context, in *inst.Instance, p engine.Params) (engine.Result, error) {
			return engine.Result{Tree: star(in)}, nil
		})
	return reg
}

const blockNet = `{"nets":[{"algo":"block","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`

// TestDeadlineExceeded408 wires a request deadline through the context
// into a construction that never finishes on its own.
func TestDeadlineExceeded408(t *testing.T) {
	proceed := make(chan struct{}) // never closed: only the deadline ends the build
	_, ts := newTestServer(t, Config{Registry: blockingRegistry(proceed)})

	code, data, _ := postBuild(t, ts.URL, `{"timeout_ms":50,`+blockNet[1:])
	if code != http.StatusRequestTimeout {
		t.Fatalf("status %d (want 408), body %s", code, data)
	}
	if got := counterValue(t, ts.URL, CtrTimeouts); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// TestQueueFullShedding saturates a workers=1 queue=1 daemon and
// requires the third request to shed with 429 + Retry-After while the
// shed counter matches, and the admitted two to finish once released.
func TestQueueFullShedding(t *testing.T) {
	proceed := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Registry:       blockingRegistry(proceed),
		Workers:        1,
		Queue:          1,
		DefaultTimeout: 30 * time.Second,
	})

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; i < 500; i++ {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	type outcome struct {
		code int
		body []byte
	}
	results := make(chan outcome, 2)
	post := func() {
		code, body, _ := postBuild(t, ts.URL, blockNet)
		results <- outcome{code, body}
	}
	go post() // occupies the single worker slot
	waitFor("worker busy", func() bool { return s.gate.active() == 1 })
	go post() // waits in the queue
	waitFor("request queued", func() bool { return s.gate.waiting() == 1 })

	code, data, hdr := postBuild(t, ts.URL, blockNet) // queue full: shed
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (want 429), body %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := counterValue(t, ts.URL, CtrShed); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	close(proceed)
	for i := 0; i < 2; i++ {
		out := <-results
		if out.code != http.StatusOK {
			t.Errorf("admitted request %d: status %d, body %s", i, out.code, out.body)
		}
	}
	if got := counterValue(t, ts.URL, CtrRequestsOK); got != 2 {
		t.Errorf("requests_ok = %d, want 2", got)
	}
}

// TestInstanceCacheHit sends the same net twice and requires the second
// answer to come from the cached instance — flagged in the response,
// counted in the metrics, and byte-identical to the first.
func TestInstanceCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	body := `{"nets":[` + randomNetJSON(rng, 30, "bkrus", `"eps":0.2`) + `]}`

	c1, b1, _ := postBuild(t, ts.URL, body)
	c2, b2, _ := postBuild(t, ts.URL, body)
	if c1 != http.StatusOK || c2 != http.StatusOK {
		t.Fatalf("statuses %d %d", c1, c2)
	}
	var r1, r2 BuildResponse
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Results[0].CacheHit {
		t.Error("first request reported a cache hit")
	}
	if !r2.Results[0].CacheHit {
		t.Error("second request missed the instance cache")
	}
	r2.Results[0].CacheHit = false
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("cached build differs from cold build:\n%s\n%s", j1, j2)
	}
	if hits := counterValue(t, ts.URL, CtrCacheHits); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if misses := counterValue(t, ts.URL, CtrCacheMisses); misses != 1 {
		t.Errorf("cache_misses = %d, want 1", misses)
	}
}

// TestConcurrentClients hammers one daemon from many goroutines with a
// small set of distinct bodies and requires every answer to be 200 and
// byte-identical per body — the determinism contract under real
// concurrency, meant to run under -race.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 256, DefaultTimeout: 60 * time.Second})

	rng := rand.New(rand.NewSource(23))
	bodies := []string{
		`{"nets":[` + randomNetJSON(rng, 24, "bkrus", `"eps":0.2`) + `]}`,
		`{"nets":[` + randomNetJSON(rng, 16, "mst", "") + `,` + randomNetJSON(rng, 12, "spt", "") + `]}`,
		`{"nets":[` + randomNetJSON(rng, 10, "bkst", `"eps":0.5`) + `]}`,
		`{"nets":[` + randomNetJSON(rng, 20, "bkrus", `"eps_sweep":[0.1,0.3,0.9]`) + `]}`,
	}

	const clients = 8
	const rounds = 4
	got := make([][][]byte, len(bodies))
	for i := range got {
		got[i] = make([][]byte, clients*rounds)
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for bi, body := range bodies {
					resp, err := http.Post(ts.URL+"/v1/build", "application/json", strings.NewReader(body))
					if err != nil {
						errs <- err.Error()
						return
					}
					data, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("client %d: status %d err %v body %s", c, resp.StatusCode, err, data)
						return
					}
					got[bi][c*rounds+r] = data
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	for bi := range bodies {
		// cache_hit flips once the instance is resident, so compare with
		// the flag normalized.
		norm := func(data []byte) []byte {
			var r BuildResponse
			if err := json.Unmarshal(data, &r); err != nil {
				t.Fatalf("body %d: %v", bi, err)
			}
			for i := range r.Results {
				r.Results[i].CacheHit = false
			}
			out, _ := json.Marshal(r)
			return out
		}
		want := norm(got[bi][0])
		for i := 1; i < len(got[bi]); i++ {
			if !bytes.Equal(want, norm(got[bi][i])) {
				t.Fatalf("body %d: response %d differs from response 0", bi, i)
			}
		}
	}
}

// TestDrainingRejects pins the graceful-shutdown surface: healthz flips
// to 503 and new builds are refused while draining.
func TestDrainingRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	s.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	code, _, _ := postBuild(t, ts.URL, blockNet)
	if code != http.StatusServiceUnavailable {
		t.Errorf("build during drain: status %d, want 503", code)
	}
	if got := counterValue(t, ts.URL, CtrDrainRejects); got != 1 {
		t.Errorf("drain_rejects = %d, want 1", got)
	}
}

// TestAlgosEndpoint lists the default registry through the API.
func TestAlgosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/algos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got AlgosResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for _, a := range got.Algos {
		names[a.Name] = a.Kind
	}
	if names["bkrus"] != "spanning" || names["bkst"] != "steiner" {
		t.Errorf("registry listing incomplete: %v", names)
	}
	if len(got.Algos) != len(engine.Names()) {
		t.Errorf("%d algos served, registry has %d", len(got.Algos), len(engine.Names()))
	}
}

// TestMetricsSnapshotShape requires /metrics to produce a snapshot that
// the checkmetrics validator semantics accept: scopes present, gauges
// published, build timers per algo.
func TestMetricsSnapshotShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, _ := postBuild(t, ts.URL, `{"nets":[{"algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`)
	if code != http.StatusOK {
		t.Fatalf("build status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var serveScope *obs.ScopeSnapshot
	for i := range snap.Scopes {
		if snap.Scopes[i].Name == ScopeName {
			serveScope = &snap.Scopes[i]
		}
	}
	if serveScope == nil {
		t.Fatal("no serve scope in snapshot")
	}
	timers := map[string]bool{}
	for _, tm := range serveScope.Timers {
		timers[tm.Name] = tm.Count > 0
	}
	if !timers[TimerRequest] || !timers[BuildTimerName("mst")] {
		t.Errorf("request/build timers missing or empty: %v", timers)
	}
	gauges := map[string]float64{}
	for _, g := range serveScope.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges[GaugeWorkers] <= 0 || gauges[GaugeQueueLimit] <= 0 {
		t.Errorf("admission gauges not published: %v", gauges)
	}
}
