# Convenience targets for the bounded path length routing library.

GO ?= go

.PHONY: all build test vet lint mutants conformance race race-parallel bench bench-json-pr9 bench-smoke bench-gate profile-sparse profile-dense profile-bkst perfbench-check quick experiments examples cover fuzz metrics-smoke serve-smoke clean

all: build vet lint test conformance

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# the thirteen domain-invariant analyzers (floatcmp, wallclock, obsgate,
# parallelgate, waitpair, sharedwrite, errdrop, detflow, ctxflow,
# allocloop, lockorder, intwidth, chanleak); see internal/analysis and
# the "Code invariants" section of README.md.
# The interprocedural analyzers load the whole module at once, so the
# run carries a wall-clock budget (seconds) to catch fixed-point
# blowups before they rot CI; override with LINT_BUDGET=0 to disable.
# The elapsed time prints in milliseconds.
LINT_BUDGET ?= 120
lint:
	@start=$$(date +%s%3N); \
	$(GO) run ./tools/lint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s%3N) - start )); \
	if [ "$(LINT_BUDGET)" -gt 0 ] && [ $$elapsed -gt $$(( $(LINT_BUDGET) * 1000 )) ]; then \
		echo "lint: took $${elapsed}ms, over the $(LINT_BUDGET)s budget" >&2; exit 1; \
	fi; \
	echo "lint: clean in $${elapsed}ms (budget $(LINT_BUDGET)s)"

test:
	$(GO) test ./...

# the test column of the lint suite's mutation table
# (internal/analysis/mutation_test.go): each seeded bug is applied to a
# temporary copy of the module and its row's go test run must fail in
# the named test. The lint column is checked by the plain test run.
mutants:
	$(GO) test -tags mutants -run '^TestMutationKills$$' -count=1 -timeout 60m -v ./internal/analysis

# cross-algorithm conformance: every constructor in the internal/engine
# registry builds valid, bound-feasible, byte-deterministic trees on the
# shared fixtures, and the same trees the tree ledgers record
# (TestForestLedger, TestConstructorLedger)
conformance:
	$(GO) test -run 'TestConformance|TestCancel|TestSweep|TestPreCancelled|Ledger' -v ./internal/engine/

# the whole suite under the race detector (the obs layer and the
# parallel router are the concurrency-heavy parts)
race:
	$(GO) test -race ./...

# the parallel kernels under a fixed worker budget: GOMAXPROCS=4 makes
# the gate/serial split deterministic so the race detector exercises
# the same schedule shape on every machine. geom carries both kernels
# (matrix fill, octant index search); graph (the edge stream) and
# engine/core/exact/steiner are serial and run here as their consumers.
race-parallel:
	GOMAXPROCS=4 $(GO) test -race ./internal/geom ./internal/graph ./internal/engine ./internal/core ./internal/exact ./internal/steiner

# full benchmark sweep, including the per-table/figure harness benches
bench:
	$(GO) test -bench . -benchmem ./...

# machine-readable record of the BKRUS refresh benchmarks (dense n=1000
# and sparse n=10000; the rows keep their workers=1 names from when the
# refresh had a worker knob), the hot-path rows the bench-gate target
# protects (DESIGN.md §14)
bench-json-pr9:
	$(GO) test -run '^$$' -bench 'BenchmarkBKRUSRefresh' -benchmem -timeout 20m ./internal/core/ \
	| $(GO) run ./tools/benchjson -o BENCH_PR9.json

# blocking gate over the BKRUS hot-path rows: rerun the refresh
# benchmarks at full benchtime (a 1x run would bill one-time setup —
# edge-stream sort, scratch growth — to ns/op and B/op, which the
# steady-state baseline amortizes away), diff against the committed
# BENCH_PR9.json baseline, and fail on a large regression or a
# silently dropped row. The threshold is deliberately generous — CI
# runners are noisy — so the gate catches order-of-magnitude
# regressions and missing rows (-require makes a dropped benchmark
# loud), not jitter.
BENCH_GATE_OVER ?= 200
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkBKRUSRefresh' -benchmem -timeout 20m ./internal/core/ \
	| $(GO) run ./tools/benchjson -o /tmp/bench_head_pr9.json
	$(GO) run ./tools/benchjson -diff -fail-over $(BENCH_GATE_OVER) \
	    -require 'BenchmarkBKRUSRefresh/n=1000/workers=1,BenchmarkBKRUSRefreshSparse/n=10000/workers=1' \
	    BENCH_PR9.json /tmp/bench_head_pr9.json

# one-iteration smoke over the same benchmarks, cheap enough for CI
# (the sparse n = 10⁵ build, ~1 s, runs 3 times), plus the per-layer
# rows of the sparse pipeline at n = 10⁴ (index at workers=1|2 on
# uniform and pin-column layouts, edges, build at ε = 0.1, 0.5, 2;
# BenchmarkSparseLayers) and of the dense one at n = 10³
# (matrix, edges, build at ε = 0.1, 0.5, 2; BenchmarkDenseLayers).
# The matrix-fill rows carry -benchmem, so B/op shows the packed
# triangle's 8·n(n+1)/2 bytes, and the row-scan constructors (spt,
# bprim, ahhk at n = 10³ on a fresh instance) show a matrix build if
# one of them goes back to reading the matrix. BenchmarkCodec runs the
# /v1/build decoder and encoder beside encoding/json on fixed 4-, 64-
# and 300-sink bodies (1000 iterations: a single one would time the
# buffer growth).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkBKRUSStream' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkBKRUSSweep' -benchtime 1x -benchmem ./internal/engine/
	$(GO) test -run '^$$' -bench 'BenchmarkDistMatrix' -benchtime 1x -benchmem ./internal/geom/
	$(GO) test -run '^$$' -bench 'BenchmarkRowScanFresh/n=1000/' -benchtime 1x -benchmem ./internal/engine/
	$(GO) test -run '^$$' -bench 'BenchmarkEdgeStreamPrefix' -benchtime 1x ./internal/graph/
	$(GO) test -run '^$$' -bench 'BenchmarkBKRUSSparse/n=100000$$' -count 3 -benchmem -timeout 5m ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkSparseLayers' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkDenseLayers' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkCodec' -benchtime 1000x -benchmem ./internal/serve/

# CPU profile of the sparse BKRUS hot path (n = 10⁴, ε = 0.2): runs
# BenchmarkBKRUSRefreshSparse under -cpuprofile and prints the 15
# functions with the most flat time. The profile and the test binary
# land next to PROFILE_OUT for further `go tool pprof` digging.
PROFILE_OUT ?= /tmp/bkrus_sparse
profile-sparse:
	$(GO) test -run '^$$' -bench 'BenchmarkBKRUSRefreshSparse' -benchtime 10x \
	    -cpuprofile $(PROFILE_OUT).prof -o $(PROFILE_OUT).test ./internal/core/
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_OUT).test $(PROFILE_OUT).prof

# the dense twin of profile-sparse: the ε = 0.1 build row of
# BenchmarkDenseLayers (n = 1000, a fresh complete-graph stream per op,
# the deepest-draining bound) under -cpuprofile, so the bucket sorts the
# scan reaches show next to the scan and the forest bookkeeping. The
# stream's construction passes run with the timer stopped but still
# land in the profile. Writes $(PROFILE_DENSE_OUT).prof and .test.
PROFILE_DENSE_OUT ?= /tmp/bkrus_dense
profile-dense:
	$(GO) test -run '^$$' -bench 'BenchmarkDenseLayers/layer=build/eps=0.1$$' -benchtime 10x \
	    -cpuprofile $(PROFILE_DENSE_OUT).prof -o $(PROFILE_DENSE_OUT).test ./internal/core/
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DENSE_OUT).test $(PROFILE_DENSE_OUT).prof

# CPU profile of the Steiner construction: BenchmarkBKSTSinks/n=200
# (a float L1 net of 200 sinks, ε = 0.3, 5 iterations) under
# -cpuprofile; writes $(PROFILE_BKST_OUT).prof and .test and prints the
# top 15.
PROFILE_BKST_OUT ?= /tmp/bkst
profile-bkst:
	$(GO) test -run '^$$' -bench 'BenchmarkBKSTSinks/n=200$$' -benchtime 5x \
	    -cpuprofile $(PROFILE_BKST_OUT).prof -o $(PROFILE_BKST_OUT).test ./internal/steiner/
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_BKST_OUT).test $(PROFILE_BKST_OUT).prof

# the benchmark in perfbench/ is a module of its own, so the root
# `go build ./...` never compiles it; vet and test it here so removing
# a program symbol it uses fails loudly
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

# every table and figure at reduced size (seconds)
quick:
	$(GO) run ./cmd/experiments -quick

# every table and figure at paper size (hours on the r4/r5 stand-ins)
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clocktree
	$(GO) run ./examples/steiner
	$(GO) run ./examples/elmore
	$(GO) run ./examples/globalroute

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -fuzz FuzzReadInstance -fuzztime 30s ./internal/bench/
	$(GO) test -fuzz FuzzReadNetlist -fuzztime 30s ./internal/router/
	$(GO) test -fuzz FuzzBuildHandler -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzIndex -fuzztime 30s ./internal/geom/

# end-to-end check of the -metrics pipeline: run one construction with
# a metrics snapshot and verify the output is valid JSON with scopes
metrics-smoke:
	$(GO) run ./cmd/bmstree -algo bkrus -eps 0.2 -bench p3 -quiet -metrics /tmp/bmstree-metrics.json
	$(GO) run ./tools/checkmetrics /tmp/bmstree-metrics.json

# end-to-end check of the serving daemon: boot cmd/bmstreed, drive a
# mixed-algorithm burst with tools/loadgen, validate /metrics with
# tools/checkmetrics, then saturate a workers=1 queue=1 daemon and
# require 429s with an exactly matching shed counter; both daemons must
# drain cleanly on SIGTERM (SERVING.md documents the contract)
serve-smoke:
	sh scripts/serve_smoke.sh

clean:
	$(GO) clean ./...
