package core

import (
	"fmt"
	"testing"
	"time"

	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// benchEnv builds a deployment without testing.T plumbing.
func benchEnv(b *testing.B, nodes int) (*Region, *Client) {
	return benchEnvShards(b, nodes, 0, 0)
}

// benchEnvShards is benchEnv over the subtree-partitioned MDS pool
// (0 = the single MDS), acking at the at-risk bound (0 = unbounded).
func benchEnvShards(b *testing.B, nodes, mdsShards, atRiskBound int) (*Region, *Client) {
	b.Helper()
	bus := rpc.NewBus()
	model := vclock.Default()
	var cluster *dfs.Cluster
	if mdsShards >= 1 {
		cluster = dfs.NewClusterSharded(bus, model, rootCred, "storage0", mdsShards, []string{"/w"}, []string{"s1"})
	} else {
		cluster = dfs.NewCluster(bus, model, rootCred, "storage0", []string{"s1"})
	}
	admin := cluster.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w", 0o777); err != nil {
		b.Fatal(err)
	}
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	// Observability (with tracing at its default 1-in-64 head sampling)
	// stays attached: the alloc gate measures the op cost users actually
	// pay, and unsampled ops must stay allocation-free by design.
	o := obs.New()
	bus.SetObserver(o)
	region, err := NewRegion(RegionConfig{
		Name: "bench", Workspace: "/w", Nodes: names, Cred: appCred, Model: model, AtRiskBound: atRiskBound,
	}, Deps{
		Bus: bus,
		Obs: o,
		NewBackend: func(node string) Backend {
			return cluster.NewClient(node, appCred, 4096, time.Hour)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { region.Close() })
	c, err := region.NewClient("node0")
	if err != nil {
		b.Fatal(err)
	}
	return region, c
}

// Wall-clock cost of the client-facing operations: what a simulation
// pays per op, dominated by cache-server map work and encoding.

// The two create benchmarks time a create to the end of its commit: the
// Drain is inside the timed span. Stopping the clock at the last ack
// counted however much of the concurrent commit side happened to
// overlap the loop — anything from 8 to 16 allocs/op run to run, and
// more the faster the commit side gets — and the alloc gate is a number
// only if it measures one thing. (The commit side alone is
// BenchmarkCommitWave.)
func BenchmarkClientCreate(b *testing.B) {
	benchCreate(b, 0, 0)
}

func benchCreate(b *testing.B, mdsShards, atRiskBound int) {
	r, c := benchEnvShards(b, 4, mdsShards, atRiskBound)
	now := vclock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		now, err = c.Create(now, fmt.Sprintf("/w/f%09d", i), 0o644)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := r.Drain(now); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClientCreateSharded is the same path with the shard router in
// front of a 4-shard MDS pool: the router's owner hash is inline and
// allocation-free, so what the alloc gate allows it on top of the
// single-MDS path is the per-shard apply_batch frames.
func BenchmarkClientCreateSharded(b *testing.B) {
	benchCreate(b, 4, 0)
}

// BenchmarkClientCreateBoundedAck is the create at AtRiskBound 1, the
// abl-async ablation's Pacon-sync-commit: every ack waits on the node's
// in-flight table for its own commit. The wait allocates nothing of its
// own — no timer, no closure — so it costs what the create does plus the
// ack's wake-up.
func BenchmarkClientCreateBoundedAck(b *testing.B) {
	benchCreate(b, 0, 1)
}

// The two stat benchmarks are the cache-hit read path, which make
// alloc-gate pins: a Stat allocates nothing (the reply is decoded where
// it landed, in a pooled buffer), a 16-key StatMulti its result slice
// plus the per-call grouping and fan-out. Both warm up first, past the
// first op obs head-samples: that op allocates the span assembler's map
// and its segments' critpath histograms, a one-time cost of the
// deployment that would otherwise land in the timed loop.
func BenchmarkClientStatHit(b *testing.B) {
	_, c := benchEnv(b, 4)
	now, err := c.Create(0, "/w/hot", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	stat := func() {
		if _, now, err = c.Stat(now, "/w/hot"); err != nil {
			b.Fatal(err)
		}
	}
	warmUp(stat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stat()
	}
}

// BenchmarkClientStatMiss is a Stat of a file the cache does not hold:
// the get's read-through at the owning cache server — its DFS stat, the
// loaded entry's encoding and the add — in the one round trip. Every
// iteration reads another file, created on the DFS beforehand.
func BenchmarkClientStatMiss(b *testing.B) {
	_, c := benchEnv(b, 4)
	paths := make([]string, obs.DefaultSampleN+b.N)
	st := fsapi.NewFileStat(appCred, 0o644)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/cold%07d", i)
		if _, err := applyOne(c.backend, 0, fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: paths[i], Stat: st}); err != nil {
			b.Fatal(err)
		}
	}
	now, next := vclock.Time(0), 0
	stat := func() {
		var err error
		if _, now, err = c.Stat(now, paths[next]); err != nil {
			b.Fatal(err)
		}
		next++
	}
	warmUp(stat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stat()
	}
}

// BenchmarkClientStatMulti is the batched read path with every key a
// cache hit: 16 siblings spread over the 4 cache servers, so one call is
// one grouping, one get_multi fan-out and 16 decodes.
func BenchmarkClientStatMulti(b *testing.B) {
	_, c := benchEnv(b, 4)
	now, err := c.Mkdir(0, "/w/dir", 0o755)
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, 16)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/dir/file%02d", i)
		if now, err = c.Create(now, paths[i], 0o644); err != nil {
			b.Fatal(err)
		}
	}
	statMulti := func() {
		var res []fsapi.StatResult
		if res, now, err = c.StatMulti(now, paths); err != nil || res[15].Err != nil {
			b.Fatal(err, res[15].Err)
		}
	}
	warmUp(statMulti)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statMulti()
	}
}

// BenchmarkClientStatMultiMiss is the batched read path with every key a
// miss: 16 files the cache does not hold, spread over the 4 cache
// servers, so one call is one get_multi per owner, each owner loading its
// share with one DFS read and adding it. Every iteration reads 16 other
// files, created on the DFS beforehand.
func BenchmarkClientStatMultiMiss(b *testing.B) {
	_, c := benchEnv(b, 4)
	st := fsapi.NewFileStat(appCred, 0o644)
	batches := make([][]string, obs.DefaultSampleN+b.N)
	for i := range batches {
		batches[i] = make([]string, 16)
		for j := range batches[i] {
			batches[i][j] = fmt.Sprintf("/w/cold%07d.%02d", i, j)
		}
		if _, _, err := c.backend.ApplyBatch(0, createAll(batches[i], st)); err != nil {
			b.Fatal(err)
		}
	}
	now, next := vclock.Time(0), 0
	statMulti := func() {
		var res []fsapi.StatResult
		var err error
		if res, now, err = c.StatMulti(now, batches[next]); err != nil || res[15].Err != nil {
			b.Fatal(err, res[15].Err)
		}
		next++
	}
	warmUp(statMulti)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statMulti()
	}
}

// createAll is a batch creating every path with st.
func createAll(paths []string, st fsapi.Stat) []fsapi.BatchOp {
	ops := make([]fsapi.BatchOp, len(paths))
	for i, p := range paths {
		ops[i] = fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: p, Stat: st}
	}
	return ops
}

// warmUp runs op until obs has head-sampled at least one op.
func warmUp(op func()) {
	for i := 0; i < obs.DefaultSampleN; i++ {
		op()
	}
}

// BenchmarkCommitWave is the commit side alone: with the commit
// processes parked, a client enqueues a round of creates plus the
// removes of the previous round's (by then committed) files; the timed
// span is the release and the Drain, i.e. dequeue, coalesce, wave
// construction, apply_batch, settle fan-out and the terminal
// accounting of every op — none of the client's work. One iteration is
// one committed op. make alloc-gate pins its allocs/op. Every wave is in
// /w, one directory group: the DFS client sends it as one request, so
// this row and its payload twin are the control for
// BenchmarkCommitWaveTwoDirs.
func BenchmarkCommitWave(b *testing.B) { benchCommitWave(b, 0, false) }

// BenchmarkCommitWavePayload is BenchmarkCommitWave with every fourth
// create followed by a 64-byte write, as ckpt_rotate's are: the write
// coalesces into its create, so the op count is the same and what is
// added is the wave's WriteBatch.
func BenchmarkCommitWavePayload(b *testing.B) { benchCommitWave(b, 4, false) }

// BenchmarkCommitWaveTwoDirs is ckpt_rotate's queue shape: each create in
// this round's directory is followed by the remove of the last round's
// file in the other, and every fourth create writes 64 B. A wave then
// spans two directories, and the DFS client sends them as two requests
// that the MDS serves on two workers side by side: virt_us/op, the
// virtual time the commit side takes per op, is what that overlap saves
// (≈152 → ≈117 when it came in), and make alloc-gate pins the
// allocations the second request may not add.
func BenchmarkCommitWaveTwoDirs(b *testing.B) { benchCommitWave(b, 4, true) }

// benchCommitWave: every payloadEvery-th create carries bytes (0: none).
// With twoDirs the rounds alternate between /w/d0 and /w/d1 and a round's
// removes are interleaved with its creates; without it every round is in
// /w, creates first and removes after.
func benchCommitWave(b *testing.B, payloadEvery int, twoDirs bool) {
	const round = 256 // creates per round, and removes from the second on
	payload := make([]byte, 64)
	r, c := benchEnv(b, 4)
	now := vclock.Time(0)
	var err error
	file := func(n, i int) string { return fmt.Sprintf("/w/r%06d-%03d", n, i) }
	if twoDirs {
		file = func(n, i int) string { return fmt.Sprintf("/w/d%d/r%06d-%03d", n%2, n, i) }
		for _, d := range []string{"/w/d0", "/w/d1"} {
			if now, err = c.Mkdir(now, d, 0o755); err != nil {
				b.Fatal(err)
			}
		}
	}
	prev := 0 // files the previous round created
	enqueue := func(n, budget int) (release func(), ops int) {
		release = holdCommits(b, r)
		created, removed := 0, 0
		remove := func() {
			if now, err = c.Remove(now, file(n-1, removed)); err != nil {
				b.Fatal(err)
			}
			removed++
			ops++
		}
		for ; created < round && ops < budget; created++ {
			p := file(n, created)
			if now, err = c.Create(now, p, 0o644); err != nil {
				b.Fatal(err)
			}
			if payloadEvery > 0 && created%payloadEvery == 0 {
				if now, err = c.WriteAt(now, p, 0, payload); err != nil {
					b.Fatal(err)
				}
			}
			ops++
			if twoDirs && removed < prev && ops < budget {
				remove()
			}
		}
		for removed < prev && ops < budget {
			remove()
		}
		prev = created
		return release, ops
	}
	drain := func(release func()) {
		release()
		if now, err = r.Drain(now); err != nil {
			b.Fatal(err)
		}
	}
	// Round 0 is warm-up and gives round 1 files to remove.
	release, _ := enqueue(0, round)
	drain(release)
	b.ResetTimer()
	b.StopTimer()
	var virt vclock.Duration
	for n, done := 1, 0; done < b.N; n++ {
		start := now
		release, ops := enqueue(n, b.N-done)
		b.StartTimer()
		drain(release)
		b.StopTimer()
		virt += now.Sub(start)
		done += ops
	}
	b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virt_us/op")
	if s := r.Stats(); s.Dropped != 0 || s.Retries != 0 {
		b.Fatalf("commit side did not run clean: %+v", s)
	}
}

// BenchmarkClientRemove is a cached rm timed as the create benchmarks time
// a create, client call to end of commit: the files are created and
// committed before the clock starts, and the Drain that commits the
// removes is inside the timed span.
func BenchmarkClientRemove(b *testing.B) {
	r, c := benchEnv(b, 4)
	now := vclock.Time(0)
	var err error
	for i := 0; i < b.N; i++ {
		if now, err = c.Create(now, fmt.Sprintf("/w/f%09d", i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if now, err = r.Drain(now); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = c.Remove(now, fmt.Sprintf("/w/f%09d", i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := r.Drain(now); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClientInlineWrite rewrites a committed small file's 1 KiB
// inline, client call to end of commit like the rest.
func BenchmarkClientInlineWrite(b *testing.B) {
	r, c := benchEnv(b, 4)
	now, err := c.Create(0, "/w/inline", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if now, err = r.Drain(now); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = c.WriteAt(now, "/w/inline", 0, payload); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := r.Drain(now); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReaddirBarrier(b *testing.B) {
	region, c := benchEnv(b, 2)
	now := vclock.Time(0)
	var err error
	for i := 0; i < 64; i++ {
		if now, err = c.Create(now, fmt.Sprintf("/w/f%02d", i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if now, err = region.Drain(now); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, now, err = c.Readdir(now, "/w"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaddirBarrierSiblingWriter measures the scoped-barrier win:
// a writer floods /w/sib from another node while we list /w/hot. With
// scoped barriers the listings never wait for the sibling queue (the
// full-drain cost they avoid is recorded under "Retired predecessors"
// in EXPERIMENTS.md). Also runs as a short-mode smoke in `make check`
// (-benchtime=1x).
func BenchmarkReaddirBarrierSiblingWriter(b *testing.B) {
	region, c := benchEnv(b, 2)
	now := vclock.Time(0)
	var err error
	if now, err = c.Mkdir(now, "/w/hot", 0o755); err != nil {
		b.Fatal(err)
	}
	if now, err = c.Mkdir(now, "/w/sib", 0o755); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if now, err = c.Create(now, fmt.Sprintf("/w/hot/f%02d", i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if now, err = region.Drain(now); err != nil {
		b.Fatal(err)
	}

	w, err := region.NewClient("node1")
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wt := now
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var werr error
			if wt, werr = w.Create(wt, fmt.Sprintf("/w/sib/s%09d", i), 0o644); werr != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, now, err = c.Readdir(now, "/w/hot"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkCacheValCodec(b *testing.B) {
	v := cacheVal{dirty: true, seq: 42, stat: fsapi.NewFileStat(appCred, 0o644)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := v.encode()
		if _, err := decodeCacheVal(enc); err != nil {
			b.Fatal(err)
		}
	}
}
