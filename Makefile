GO ?= go

.PHONY: build test check chaos-soak audit-check bench bench-quick alloc-gate clean

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

# chaos-soak runs the chaos convergence suite ten times over: 1,040
# schedules, about ten seconds. One pass of `make check` is 104, too few
# to see a flake class at a few failures per thousand schedules — stale
# DFS-client reads and out-of-space removes once failed 6 in 7,800,
# which a soak catches every other run — so CI runs this after check,
# with CHAOS_FLIGHT_DIR set: a failing seed leaves its flight dump.
chaos-soak:
	$(GO) test -run TestChaosConvergence -count=10 ./internal/chaos/

# audit-check is the divergence gate: the chaos suite runs with the
# post-drain auditor as a second convergence oracle (any divergent or
# stale-pending key fails the run), the audit/core staleness tests run,
# and the audit experiment writes AUDIT_report.json — the evidence CI
# archives. The report is written even when the gate fails.
audit-check: build
	$(GO) test -count=1 ./internal/chaos/ ./internal/audit/
	$(GO) run ./cmd/paconbench -quick -fig audit -json AUDIT_report.json

# bench regenerates BENCH.json, the committed full-scale report: every
# report experiment (commit, shards, read, scale, hotspot, audit), one
# row per workload x clients x MDS shards, all in one schema (see
# "Reading BENCH.json" in README.md). About a minute. bench-quick is the
# same at -quick scale (seconds) into BENCH_ci.json — what CI runs.
# Both pin GOMAXPROCS=1: virtual throughput to the end of a drain
# depends on how the host interleaves producers with commit processes,
# and on one P two runs agree within about 1% on any host, where a
# 2-vCPU run of the same binary moves the sharded rows by up to 2x
# (EXPERIMENTS.md, "Report rows and the host").
bench:
	GOMAXPROCS=1 $(GO) run ./cmd/paconbench -json BENCH.json

bench-quick:
	GOMAXPROCS=1 $(GO) run ./cmd/paconbench -quick -json BENCH_ci.json

# alloc-gate pins the hot paths' allocation counts. Create: one create
# from the client call to the end of its commit — the benchmark drains
# inside the timed span — is 16-17 allocs/op, 19 through the 4-shard
# router, and the gates sit one above. (The benchmarks used to stop the
# clock at the last ack, and read anything from 8 to 16 depending on how
# much of the commit side overlapped the loop; in today's form they read
# 17 and 20 on the commit before this one.) Batched read: a 16-sibling
# StatMulti, all hits over 4 cache servers, was 82 allocs/op with
# map-based owner grouping and a second result slice, 36 without, and is
# 26 now that the in-process fan-out spawns no goroutine per owner (16
# of them the hit values themselves); the count does not vary between
# runs, so the gate is the number. Commit side: one op through dequeue,
# wave construction, apply_batch and the settle fan-out
# (BenchmarkCommitWave times only the release and the drain) is 7
# allocs and 506 B; the count is the same with per-wave scratch
# allocated afresh, which shows in the bytes instead (1,265 B/op before
# the commit process owned its scratch), so this gate holds both — the
# bytes at 768, a third of the way back. DFS client: every singleton
# mutation is a one-op apply_batch, and one create end to end is 4
# allocs and 231 B, its path string, its inode and its three-byte reply
# — the gate, 5 and 300, is what the dedicated endpoint cost (4, 279 B)
# plus at most that reply; a heap-allocated one-op batch or a closure
# built on the lone-target path shows here first. The same create sent
# as an ApplyBatch of one — what a commit wave holding a lone op sends,
# half the commits of an mdtest-like mix — is that plus the one-element
# result it returns, 5 allocs and 247 B, gated at 6 and 320: a batch of
# one that took the grouping path (7 allocs, 319 B) fails it. Eight
# creates in one ApplyBatch on one MDS are 28 allocs (36 with map-based
# grouping); without that map the gates above read 15, 17, 26 and 6
# allocs / 335 B today, and keep the headroom they had. With every fourth
# create carrying 64 B the wave adds its WriteBatch: 6 allocs, 399 B.
alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientCreate$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientCreate/ {print $$(NF-1)}'); \
	echo "create path: $$allocs allocs/op (gate: <= 18)"; \
	test "$$allocs" -le 18
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientCreateSharded$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientCreateSharded/ {print $$(NF-1)}'); \
	echo "create path (4-shard router): $$allocs allocs/op (gate: <= 20)"; \
	test "$$allocs" -le 20
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientStatMulti$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientStatMulti/ {print $$(NF-1)}'); \
	echo "batched read path: $$allocs allocs/op (gate: <= 26)"; \
	test "$$allocs" -le 26
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkCommitWave$$' -benchtime 2048x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkCommitWave/ {print $$(NF-1)}'); \
	bytes=$$(echo "$$out" | awk '/^BenchmarkCommitWave/ {print $$(NF-3)}'); \
	echo "commit wave: $$allocs allocs/op, $$bytes B/op (gate: <= 7 and <= 768)"; \
	test "$$allocs" -le 7 && test "$$bytes" -le 768
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkCommitWavePayload$$' -benchtime 2048x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkCommitWavePayload/ {print $$(NF-1)}'); \
	bytes=$$(echo "$$out" | awk '/^BenchmarkCommitWavePayload/ {print $$(NF-3)}'); \
	echo "commit wave with payload: $$allocs allocs/op, $$bytes B/op (gate: <= 6 and <= 408)"; \
	test "$$allocs" -le 6 && test "$$bytes" -le 408
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkCreate$$' -benchtime 20000x -benchmem ./internal/dfs/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkCreate/ {print $$(NF-1)}'); \
	bytes=$$(echo "$$out" | awk '/^BenchmarkCreate/ {print $$(NF-3)}'); \
	echo "dfs create (one-op batch): $$allocs allocs/op, $$bytes B/op (gate: <= 5 and <= 300)"; \
	test "$$allocs" -le 5 && test "$$bytes" -le 300
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkApplyBatch1$$' -benchtime 20000x -benchmem ./internal/dfs/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkApplyBatch1/ {print $$(NF-1)}'); \
	bytes=$$(echo "$$out" | awk '/^BenchmarkApplyBatch1/ {print $$(NF-3)}'); \
	echo "dfs apply_batch of 1: $$allocs allocs/op, $$bytes B/op (gate: <= 6 and <= 320)"; \
	test "$$allocs" -le 6 && test "$$bytes" -le 320
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkApplyBatch8/shards=1$$' -benchtime 20000x -benchmem ./internal/dfs/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkApplyBatch8/ {print $$(NF-1)}'); \
	echo "dfs apply_batch of 8, one MDS: $$allocs allocs/op (gate: <= 30)"; \
	test "$$allocs" -le 30

clean:
	$(GO) clean ./...
