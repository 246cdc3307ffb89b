// Command loadgen drives a running bmstreed daemon with a deterministic
// burst of mixed-algorithm build requests and reports the status and
// latency distribution, so `make serve-smoke` exercises the serving
// path end to end: admission, building, the instance cache, and the
// metrics surface. It is stdlib-only, like everything in this module.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8344 [-n 60] [-c 8] [-algos bkrus,mst,bkst]
//	        [-sinks 24] [-sweep 0] [-seed 1] [-timeout-ms 0]
//	        [-metrics-out file.json] [-expect-shed]
//
// The request mix is fully determined by -seed, -n, -algos, -sinks and
// -sweep, so a rerun against an identical daemon produces identical
// bodies. After the burst, loadgen fetches /metrics and optionally
// writes the snapshot to -metrics-out for tools/checkmetrics.
//
// In the default mode every request must return 200 or loadgen exits 1.
// With -expect-shed, non-200s are part of the experiment: loadgen
// instead requires at least one 429 and checks that the daemon's serve
// `shed` counter equals the number of 429s it observed — the
// load-shedding accounting contract. Run it against a fresh daemon that
// no other client is using, or the counter comparison is meaningless.
//
// Exit status: 0 on success, 1 on transport errors or failed checks,
// 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

type config struct {
	addr       string
	n, c       int
	algos      []string
	sinks      int
	sweep      int
	seed       int64
	timeoutMS  int64
	metricsOut string
	expectShed bool
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8344", "daemon address (host:port or http URL)")
		n          = flag.Int("n", 60, "total requests")
		c          = flag.Int("c", 8, "concurrent clients")
		algos      = flag.String("algos", "bkrus,mst,bkst", "comma-separated constructor mix, assigned round-robin")
		sinks      = flag.Int("sinks", 24, "sinks per net (Steiner nets are capped at 24: the Hanan grid is quadratic)")
		sweep      = flag.Int("sweep", 0, "when > 0, every third request carries an eps_sweep of this many values")
		seed       = flag.Int64("seed", 1, "request-mix seed")
		timeoutMS  = flag.Int64("timeout-ms", 0, "per-request timeout_ms field (0 = server default)")
		metricsOut = flag.String("metrics-out", "", "write the post-burst /metrics snapshot to this file")
		expectShed = flag.Bool("expect-shed", false, "expect 429s and require the serve shed counter to match the observed count")
	)
	flag.Parse()
	if *n < 1 || *c < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -n and -c must be positive")
		os.Exit(2)
	}
	cfg := config{
		addr: *addr, n: *n, c: *c, algos: strings.Split(*algos, ","),
		sinks: *sinks, sweep: *sweep, seed: *seed,
		timeoutMS: *timeoutMS, metricsOut: *metricsOut, expectShed: *expectShed,
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// outcome is one request's result.
type outcome struct {
	status  int
	latency time.Duration
	err     error
}

// run executes the burst and the post-burst checks. It is the whole
// program behind the flag parsing, so tests can drive it directly.
func run(cfg config, out io.Writer) error {
	base := cfg.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	bodies := makeBodies(cfg)

	client := &http.Client{Timeout: 2 * time.Minute}
	results := make([]outcome, len(bodies))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < cfg.c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = post(client, base, bodies[i])
			}
		}()
	}
	start := time.Now()
	for i := range bodies {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	byStatus, lats, firstErr := tally(results)
	report(out, cfg, base, elapsed, byStatus, lats)
	if firstErr != nil {
		return firstErr
	}

	snapshot, err := fetchMetrics(client, base, cfg.metricsOut)
	if err != nil {
		return err
	}

	if cfg.expectShed {
		return checkShed(out, snapshot, byStatus[http.StatusTooManyRequests])
	}
	if ok := byStatus[http.StatusOK]; ok != len(bodies) {
		return fmt.Errorf("%d of %d requests did not return 200", len(bodies)-ok, len(bodies))
	}
	return nil
}

// makeBodies renders the deterministic request mix.
func makeBodies(cfg config) [][]byte {
	rng := rand.New(rand.NewSource(cfg.seed))
	bodies := make([][]byte, cfg.n)
	for i := range bodies {
		algo := strings.TrimSpace(cfg.algos[i%len(cfg.algos)])
		sinks := cfg.sinks
		if strings.HasPrefix(algo, "bkst") && sinks > 24 {
			sinks = 24
		}
		net := serve.NetRequest{
			Name: fmt.Sprintf("n%d", i),
			Algo: algo,
			Eps:  0.25,
			Source: serve.Point{
				X: rng.Float64() * 1000,
				Y: rng.Float64() * 1000,
			},
		}
		for s := 0; s < sinks; s++ {
			net.Sinks = append(net.Sinks, serve.Point{
				X: rng.Float64() * 1000,
				Y: rng.Float64() * 1000,
			})
		}
		if cfg.sweep > 0 && i%3 == 2 {
			net.Eps = 0
			for k := 0; k < cfg.sweep; k++ {
				net.EpsSweep = append(net.EpsSweep, float64(k)*0.2)
			}
		}
		req := serve.BuildRequest{TimeoutMS: cfg.timeoutMS, Nets: []serve.NetRequest{net}}
		//lint:ignore detflow rng is seeded from the -seed flag; request bodies are deterministic for a fixed seed by design
		data, err := json.Marshal(&req)
		if err != nil {
			panic(err) // request structs are marshal-safe by construction
		}
		bodies[i] = data
	}
	return bodies
}

// post sends one build request and classifies the answer.
func post(client *http.Client, base string, body []byte) outcome {
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/build", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err, latency: time.Since(t0)}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return outcome{status: resp.StatusCode, latency: time.Since(t0), err: err}
}

// tally folds the outcomes into status counts and a sorted latency set.
func tally(results []outcome) (byStatus map[int]int, lats []time.Duration, firstErr error) {
	byStatus = map[int]int{}
	for _, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		byStatus[r.status]++
		lats = append(lats, r.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return byStatus, lats, firstErr
}

// report prints the human summary: status counts and the latency
// distribution of the burst.
func report(out io.Writer, cfg config, base string, elapsed time.Duration, byStatus map[int]int, lats []time.Duration) {
	fmt.Fprintf(out, "loadgen: %d requests, %d clients against %s in %v\n", cfg.n, cfg.c, base, elapsed.Round(time.Millisecond))
	codes := make([]int, 0, len(byStatus))
	for code := range byStatus {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(out, "  status %d: %d\n", code, byStatus[code])
	}
	if len(lats) > 0 {
		q := func(p float64) time.Duration {
			i := int(p * float64(len(lats)-1))
			return lats[i].Round(time.Microsecond)
		}
		fmt.Fprintf(out, "  latency: min %v p50 %v p99 %v max %v\n", q(0), q(0.5), q(0.99), q(1))
	}
}

// fetchMetrics pulls /metrics and optionally writes the raw snapshot to
// path for tools/checkmetrics.
func fetchMetrics(client *http.Client, base, path string) ([]byte, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("fetching /metrics: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %d", resp.StatusCode)
	}
	if path != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// checkShed enforces the load-shedding accounting contract: the serve
// scope's shed counter must equal the 429s this (sole) client observed,
// and there must have been at least one.
func checkShed(out io.Writer, snapshot []byte, observed int) error {
	var snap obs.Snapshot
	if err := json.Unmarshal(snapshot, &snap); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	shed, found := int64(0), false
	for _, sc := range snap.Scopes {
		if sc.Name != serve.ScopeName {
			continue
		}
		for _, c := range sc.Counters {
			if c.Name == serve.CtrShed {
				shed, found = c.Value, true
			}
		}
	}
	if !found {
		return fmt.Errorf("/metrics has no %s/%s counter", serve.ScopeName, serve.CtrShed)
	}
	if observed == 0 {
		return fmt.Errorf("expected the burst to shed, but saw no 429s (shed counter: %d)", shed)
	}
	if shed != int64(observed) {
		return fmt.Errorf("shed counter %d != observed 429 count %d", shed, observed)
	}
	fmt.Fprintf(out, "  shed accounting: %d 429s observed, shed counter %d\n", observed, shed)
	return nil
}
