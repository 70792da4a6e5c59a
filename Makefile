# cardpi — prediction intervals for learned cardinality estimation.

GO ?= go

.PHONY: all build test race bench bench-json bench-serve experiments experiments-small fmt vet cover clean serve serve-smoke train-demo registry-demo synth-demo

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Run the NN-core benchmarks and record them as BENCH_nn.json so future
# changes have a perf trajectory to compare against, then the PI hot-path
# benchmarks as BENCH_pi.json at GOMAXPROCS=1, so the batch path's sharding
# does not hide the per-query cost (sequential Interval vs IntervalBatch, the
# serve-shaped localized-CP kernel vs its full-sort reference, scalar
# MSCN inference vs the training-path forward, and the /estimate reply
# encoder vs encoding/json; the speedups block records the ratios), the
# multi-core batch
# matrix as BENCH_batch_mt.json, the exact count oracle (Table.Count
# against the column scan and the row-at-a-time reference, and the build of
# its per-column value orders) as BENCH_count.json, and the query
# parser (ParseQuery against its reference lexer and merge), the cache
# key of a parsed row, and a warm hit answered from its canonical text
# against the parse-then-probe path as BENCH_parse.json.
bench-json:
	@{ $(GO) test -run '^$$' -bench '^BenchmarkFit$$' -benchmem ./internal/nn/ ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkIntervalCV$$' -benchmem ./internal/conformal/ ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkEvaluate$$' -benchmem . ; } \
	  | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_nn.json
	@export GOMAXPROCS=1; \
	{ $(GO) test -run '^$$' -bench '^BenchmarkInterval(Batch)?$$' -benchmem . ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkLocalDelta(Ref)?$$' -benchmem ./internal/conformal/ ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkEstimateSelectivity(Forward)?$$' -benchmem ./internal/mscn/ ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkReplyEncode(JSON)?$$' -benchmem ./cmd/cardpi/ ; } \
	  | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_pi.json
	@{ $(GO) test -run '^$$' -bench '^BenchmarkIntervalBatchMT$$' -benchmem . ; } \
	  | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_batch_mt.json
	@{ $(GO) test -run '^$$' -bench '^BenchmarkCount(Scan|RowScan|IndexBuild)?$$' -benchmem ./internal/dataset/ ; } \
	  | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_count.json
	@{ $(GO) test -run '^$$' -bench '^BenchmarkParseQuery(Ref)?$$' -benchmem ./internal/workload/ ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkKeyOf$$' -benchmem ./internal/cache/ ; \
	   $(GO) test -run '^$$' -bench '^BenchmarkServeHitRow$$' -benchmem ./cmd/cardpi/ ; } \
	  | tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_parse.json

# Record the serving-layer interval-cache speedup as BENCH_serve.json:
# boot identical cache-on and cache-off servers, replay a Zipfian query
# universe against both with `cardpi loadgen`, and fail unless cache-on
# sustains >= 5x the cache-off queries/sec (see OPERATIONS.md).
bench-serve:
	bash scripts/bench-serve.sh

# Regenerate every paper table/figure at the default scale.
experiments:
	$(GO) run ./cmd/cardpi-bench -experiment all

experiments-small:
	$(GO) run ./cmd/cardpi-bench -experiment all -scale small

# Run the instrumented demo service (see OBSERVABILITY.md for endpoints).
serve:
	$(GO) run ./cmd/cardpi serve

# Train a demo artifact bundle and print its provenance manifest; serve it
# afterwards with `go run ./cmd/cardpi serve -artifact model.cpi`
# (see the artifact-format section of DESIGN.md).
train-demo:
	$(GO) run ./cmd/cardpi train -dataset dmv -model spn -method s-cp -out model.cpi
	$(GO) run ./cmd/cardpi inspect model.cpi

# Boot `cardpi serve` on a small dataset, curl /estimate and /metrics once,
# and assert a 200 plus the documented cardpi_ metric families; then run the
# artifact and multi-tenant registry round trips headlessly.
serve-smoke:
	bash scripts/serve-smoke.sh

# Narrated multi-tenant registry walkthrough: the OPERATIONS.md worked
# session (two tenants, register → promote → routed queries →
# interval-equality check → v2 rollout → rollback), printing every server
# response along the way.
registry-demo:
	bash scripts/registry-demo.sh

# Budget-aware estimator synthesis end to end: run `cardpi synth` under an
# artifact budget, verify the checksummed leaderboard (>= 8 scored trials,
# >= 1 statically pruned with a recorded reason), and serve the winning
# bundle (see the build-graph section of DESIGN.md).
synth-demo:
	bash scripts/synth-demo.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f model.cpi
