GO ?= go

.PHONY: build test check audit-check race-chaos bench-read bench-scale bench-shards bench-hotspot bench-diff alloc-gate trace-check clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the full gate: tier-1 build+test, vet, the benchmark module
# (its own go.mod, so ./... does not reach it — an internal/ API change
# that breaks it must fail here, not in the benchmark pipeline), and the
# race detector over the packages with real concurrency (the chaos
# harness runs its bounded seed set — over 100 randomized schedules —
# under -race).
check: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .
	$(GO) test -race ./internal/audit/ ./internal/chaos/ ./internal/core/ ./internal/dfs/ ./internal/memcache/ ./internal/mq/ ./internal/obs/ ./internal/rpc/
	$(GO) test -run '^$$' -bench 'ReaddirBarrier' -benchtime 1x ./internal/core/

# audit-check is the divergence gate: the chaos suite runs with the
# post-drain auditor as a second convergence oracle (any divergent or
# stale-pending key fails the run), the audit/core staleness tests run,
# and the audit experiment writes AUDIT_report.json — the evidence CI
# archives. The report is written even when the gate fails.
audit-check: build
	$(GO) test -count=1 ./internal/chaos/ ./internal/audit/
	$(GO) run ./cmd/paconbench -quick -auditjson AUDIT_report.json

# bench-read regenerates the read-path report (BENCH_read.json): batched
# multi-key reads + scoped barriers under a readdir+stat mix with
# sibling writers, plus its MDS shard sweep.
bench-read:
	$(GO) run ./cmd/paconbench -readjson BENCH_read.json

# bench-scale regenerates the client-scalability report
# (BENCH_scale.json): virtual throughput at 160 → 1M simulated clients
# multiplexed onto at most 64 shard goroutines.
bench-scale:
	$(GO) run ./cmd/paconbench -scalejson BENCH_scale.json

# bench-shards runs a trimmed MDS shard sweep (1/2/4 shards, commit
# wave at quick scale) and writes the standalone BENCH_shards.json
# artifact; the full 1/2/4/8 sweep rides inside bench-read/bench-scale
# and the commit report.
bench-shards:
	$(GO) run ./cmd/paconbench -quick -shardsjson BENCH_shards.json

# bench-hotspot regenerates the hotspot-telemetry report
# (BENCH_hotspot.json): a zipf-skewed stat/create mix at scale-bench
# fan-in, sweeping zipf s ∈ {1.0, 1.2, 1.4} × MDS shards ∈ {1, 4} and
# reporting client p50/p99, per-shard utilization spread, and the top-K
# sketch's recall of the true hot set (acceptance: ≥0.90 at s=1.2).
bench-hotspot:
	$(GO) run ./cmd/paconbench -hotjson BENCH_hotspot.json

# bench-diff compares two BENCH_*.json artifacts and fails on >10%
# regressions of direction-known metrics (throughput down, latency up).
# Usage: make bench-diff OLD=BENCH_hotspot.json NEW=BENCH_hotspot_ci.json
bench-diff:
	$(GO) run ./cmd/benchdiff -fail $(OLD) $(NEW)

# alloc-gate pins the create hot path's allocation count. The
# pre-pooling baseline was 31 allocs/op; pooled codec + inline hashing +
# buffer reuse brought it to 7, and the gate fails if it regresses past
# 16 — halfway back to the baseline.
alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientCreate$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientCreate/ {print $$(NF-1)}'); \
	echo "create path: $$allocs allocs/op (gate: <= 16)"; \
	test "$$allocs" -le 16
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientCreateSharded$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientCreateSharded/ {print $$(NF-1)}'); \
	echo "create path (4-shard router): $$allocs allocs/op (gate: <= 16)"; \
	test "$$allocs" -le 16

# trace-check is the causal-tracing gate: the cross-node trace tests
# (wire propagation, assembly/ordering, sampling, flight recorder) run
# against a counted build, then a trimmed scale sweep runs with tracing
# live at the default 1-in-64 rate and writes BENCH_scale_trace.json —
# whose per-point "trace" block is the evidence the sampler actually
# sampled at scale.
trace-check: build
	$(GO) test -count=1 -run 'Trace|Span|Sampl|Flight|CritPath' ./internal/obs/ ./internal/rpc/ ./internal/core/ ./internal/chaos/
	$(GO) run ./cmd/paconbench -quick -scalejson BENCH_scale_trace.json

# race-chaos runs only the chaos convergence schedules under -race.
race-chaos:
	$(GO) test -race -count=1 ./internal/chaos/

clean:
	$(GO) clean ./...
