GO ?= go

.PHONY: build test check chaos-soak alloc-gate clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the full gate: gofmt, tier-1 build+test, vet, the benchmark
# module (its own go.mod, so ./... does not reach it — an internal/ API
# change that breaks it must fail here, not in the benchmark pipeline),
# and the race detector over the packages with real concurrency (the
# chaos harness runs its bounded seed set — over 100 randomized
# schedules, each ending in the post-drain divergence audit — under
# -race), and the tests of core's state-ended waits (claim, crossing,
# bounded ack, stalled drain) ten times over under -race.
check: build
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .
	$(GO) test -race ./internal/audit/ ./internal/chaos/ ./internal/core/ ./internal/dfs/ ./internal/indexfs/ ./internal/memcache/ ./internal/mq/ ./internal/obs/ ./internal/rpc/
	$(GO) test -race -count=10 -run 'Claim|Crossing|BoundedAck|Stalled' ./internal/core/
	$(GO) test -run '^$$' -bench 'ReaddirBarrier' -benchtime 1x ./internal/core/

# chaos-soak runs the chaos convergence suite ten times over: 1,080
# schedules, about ten seconds. One pass of `make check` is 108, too few
# to see a flake class at a few failures per thousand schedules — stale
# DFS-client reads and out-of-space removes once failed 6 in 7,800,
# which a soak catches every other run — so CI runs this after check,
# with CHAOS_FLIGHT_DIR set: a failing seed leaves its flight dump.
chaos-soak:
	$(GO) test -run TestChaosConvergence -count=10 ./internal/chaos/

# alloc-gate pins the hot paths' allocations, a row per benchmark: package,
# benchmark, -benchtime, max allocs/op, max B/op (- for none), the line's
# label, and after the # what trips it (the history is in EXPERIMENTS.md).
define ALLOC_GATES
core BenchmarkClientCreate         2000x  18 -   create path                    # a create, client call to end of commit, is 11: an allocation added to the ack or to the in-flight table's record
core BenchmarkClientCreateSharded  2000x  20 -   create path (4-shard router)   # the same through the shard router, 12
core BenchmarkClientCreateBoundedAck 2000x 12 680 create at AtRiskBound 1   # 12 and ≈615 B, every ack waiting on its in-flight table for its own commit, every op its own wave: a timer and its closure armed per wait is +3 and ≈+140 B, the settle fan-out's scratch allocated per call again +7 and ≈+230 B
core BenchmarkClientRemove         2000x  4  -   cached rm                      # 4 and ≈110-200 B, call to end of commit, the settle rewriting the entry in place: an allocation added to the rm's request, row or answer, or a store that copies the entry again, is +1
core BenchmarkClientInlineWrite    2000x  4  2600 inline write                  # 4 and ≈2,150 B for a 1 KiB write: two copies of the bytes, the spliced value and the decoded answer; the store writes into the entry's buffer in place, and a store or a row that copies the bytes again is +1 and +1,024 B
core BenchmarkClientStatHit        2000x  1  -   cached stat                    # 0: the get's reply is decoded where it landed, in a pooled encoder; a copy of the value or a fresh reply encoder is 1-2
core BenchmarkClientStatMiss       2000x  4  264 stat miss (read-through)     # 4 and 216-230 B: the key the owner adds, its entry and value, the path the MDS decodes; the loaded entry encoded on the heap is +1, the owner's miss list unpooled +4, a fixed-width stat layout again +24 B
core BenchmarkClientStatMulti      2000x  2  1970 batched read path             # 16 hits over 4 cache servers, 1 and ≈1,610 B: the 1,536-B result slice; get_multi's grouping, reply slots or fan-out function allocated per call again is +4 and ≈+620 B; copied values are +16
core BenchmarkClientStatMultiMiss  2000x  84 8000 batched read of 16 misses     # 16 misses over 4 owners, 84 and ≈7,490 B: per key the owner's key string, its entry and value, the path the MDS decodes; per owner one StatBatch. get_multi's scratch allocated per call again is +4 and ≈+620 B, a fixed-width stat layout ≈+385 B, the owner's miss list unpooled +41 and ≈+1,580 B
core BenchmarkCommitWave           2048x  1  150 commit wave                    # 1 and ≈123 B per committed op, each settle rewriting its entry in place: a settle that stores a fresh copy is +1 and ≈+10 B; the settle fan-out allocating its grouping, result slots and closure per call again is +1 and ≈+70 B; per-wave scratch allocated afresh shows in the bytes
core BenchmarkCommitWavePayload    2048x  2  210 commit wave with payload       # 2 and ≈175 B with every fourth create carrying 64 B: a WriteBatch that copies, or asks the MDS; per-call settle scratch is +1 and ≈+75 B
core BenchmarkCommitWaveTwoDirs    2048x  2  215 commit wave over two dirs      # 2 and ≈182 B, ckpt_rotate's shape: the wave's second directory request allocating (a goroutine or closure per group, grouping scratch on the heap); per-call settle scratch is +1 and ≈+75 B
memcache BenchmarkMutateMulti      20000x 1  64  mutate fan-out, 8 keys on 4 servers # 0 and 1 B: the servers read keys and requests where the frame holds them; a key copied into a string per entry, or the frame decoded into an entry slice, is back to the 12 and 305 B of a decoding handler; the client grouping, filling result slots under a lock or binding its fan-out closure per call is +7 and ≈+580 B
fsapi BenchmarkStatCodec           100000x 0 0  stat encode + decode          # 0 and 0 B, a loaded file's stat into a reused buffer and read back as a view: a decoder, a field or the inline bytes on the heap shows here
dfs  BenchmarkCreate               20000x 2  184 dfs create (one-op batch)      # 2 and 167 B, path and tree node (the reply is decoded in a pooled encoder): a node back in the 80-B size class is +16 B, Exists wrapping its miss again +1 and +48 B, a heap-allocated one-op batch or a closure on the lone-target path +1
dfs  BenchmarkApplyBatch1          20000x 3  200 dfs apply_batch of 1           # 3 and 183 B, the create plus its one-element result: a batch of one taking the grouping path
dfs  BenchmarkApplyBatchRemove1    20000x 2  48  dfs remove of a file with bytes # 2 and 32 B, the path and the one-element result, its drop_multi included: the drop's grouping or inode list on the heap, or a closure per call, is +1
dfs  BenchmarkApplyBatch8/shards=1 20000x 17 -   dfs apply_batch of 8, one MDS  # 17, the result slice plus eight paths and eight inodes: shard buckets built on one MDS, or directory grouping leaving the stack, is +1 or +2
vclock BenchmarkResourceAcquire    100000x 0 0  station, a far-future booking every 16th # 0 and 0 B once warm: a calendar that grows past its bound, or allocates per booking, shows here
mq   BenchmarkQueuePushPop          100000x 0 0  queue push+pop                 # 0 and 0 B: a push or pop that allocates, e.g. a fresh buffer once the consumer has caught up
mq   BenchmarkQueueLaggingConsumer  100000x 0 0  queue push+pop, 64 behind      # 0 and 0 B: every segment the head empties comes back as the spare the tail fills next; a segment allocated afresh instead, or one taken from the pool, shows in the bytes
endef
export ALLOC_GATES

alloc-gate:
	@echo "$$ALLOC_GATES" | while read -r pkg bench n maxa maxb rest; do \
		out=$$($(GO) test -run '^$$' -bench "$$bench\$$" -benchtime $$n -benchmem ./internal/$$pkg/); \
		echo "$$out"; \
		set -- $$(echo "$$out" | awk -v b="$${bench%%/*}" 'index($$0, b) == 1 {print $$(NF-1), $$(NF-3)}'); \
		msg="$$(echo "$${rest%%#*}" | sed 's/ *$$//'): $$1 allocs/op"; \
		if [ "$$maxb" = - ]; then \
			echo "$$msg (gate: <= $$maxa)"; \
		else \
			echo "$$msg, $$2 B/op (gate: <= $$maxa and <= $$maxb)"; \
			test "$$2" -le "$$maxb" || exit 1; \
		fi; \
		test "$$1" -le "$$maxa" || exit 1; \
	done

clean:
	$(GO) clean ./...
