package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Tests for the wave-granular commit path and the batched subtree
// cleanups: what rides an apply_batch, what the settle fan-out costs,
// and what the deferred, batched cache deletes must leave alone.

// rpcHook is a bus observer that counts cache round trips by method and
// runs fn after each one — on the caller's goroutine, between the owner
// groups of a serial fan-out — so a test can act at a known point inside
// a client call. fn's own RPCs are counted but do not re-enter it.
type rpcHook struct {
	mu     sync.Mutex
	counts map[string]int
	inside bool
	fn     func(method string)
}

func (h *rpcHook) ObserveRPC(addr, method string, _ time.Duration, _ error) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make(map[string]int)
	}
	h.counts[method]++
	run := h.fn != nil && !h.inside
	if run {
		h.inside = true
	}
	h.mu.Unlock()
	if run {
		h.fn(method)
		h.mu.Lock()
		h.inside = false
		h.mu.Unlock()
	}
}

func (h *rpcHook) count(method string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts[method]
}

// commitSpy is a Backend as one commit process sees it: it records each
// ApplyBatch, WriteBatch and WriteAt — the only mutations a Backend has
// — and forwards them unless told to refuse every op with a
// resubmittable error, or to fail the next WriteBatch's files with
// failBytes. Driven from a test committer's one goroutine, so it needs
// no lock.
type commitSpy struct {
	Backend
	refuse    bool
	failBytes error
	batches   [][]fsapi.BatchOp
	bytes     [][]fsapi.FileWrite
	writes    []string
}

func (s *commitSpy) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	s.batches = append(s.batches, append([]fsapi.BatchOp(nil), ops...))
	if !s.refuse {
		return s.Backend.ApplyBatch(at, ops)
	}
	return refused(len(ops), fsapi.ErrNotExist), at, nil
}

func (s *commitSpy) WriteBatch(at vclock.Time, files []fsapi.FileWrite) ([]error, vclock.Time, error) {
	s.bytes = append(s.bytes, append([]fsapi.FileWrite(nil), files...))
	if err := s.failBytes; err != nil {
		s.failBytes = nil
		return refused(len(files), err), at, nil
	}
	return s.Backend.WriteBatch(at, files)
}

func (s *commitSpy) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	s.writes = append(s.writes, p)
	return s.Backend.WriteAt(at, p, off, data)
}

// spiedCommitter returns a commit process of node0 that no queue feeds,
// applying through a commitSpy over the node's DFS client.
func spiedCommitter(e *env) (*committer, *commitSpy) {
	spy := &commitSpy{Backend: e.region.deps.NewBackend("node0")}
	return e.region.newCommitter(e.region.byName["node0"], spy), spy
}

// TestRetrySweepIsBatched: a resubmission sweep is applyOps over the
// parked ops in chunks of CommitBatchSize — k parked independent-path
// ops cost ⌈k / CommitBatchSize⌉ ApplyBatch calls once the backend takes
// them, not k singleton calls — and an op that fails again goes back
// with every later same-path op behind it.
func TestRetrySweepIsBatched(t *testing.T) {
	e := newEnv(t, 1, nil) // CommitBatchSize 8
	cm, spy := spiedCommitter(e)
	const k = 19
	ops := make([]Op, 0, k+1)
	for i := 0; i < k; i++ {
		ops = append(ops, taken(cm.node, Op{Kind: OpCreate, Path: fmt.Sprintf("/w/p%02d", i), Seq: uint64(i + 1),
			Stat: fsapi.NewFileStat(appCred, 0o644)}))
	}
	// A same-path follower of the first op: it must stay behind it.
	ops = append(ops, taken(cm.node, Op{Kind: OpRemove, Path: "/w/p00", Seq: k + 1}))

	spy.refuse = true
	cm.applyOps(ops, false)
	if got := len(cm.pending.ops); got != k+1 {
		t.Fatalf("%d ops parked, want %d", got, k+1)
	}
	if got := e.region.parkedOps(); got != k+1 {
		t.Fatalf("parked gauge = %d, want %d", got, k+1)
	}
	// Still refused: one sweep resubmits the k heads in ⌈k/8⌉ batches and
	// re-parks all of them in order, the follower never leaving its place
	// behind /w/p00.
	spy.batches = nil
	before := e.region.Stats()
	cm.retryPendingOnce(false)
	if got := len(spy.batches); got != 3 {
		t.Fatalf("refused sweep of %d ops made %d ApplyBatch calls, want 3", k, got)
	}
	if got := e.region.Stats().Retries - before.Retries; got != k {
		t.Fatalf("refused sweep counted %d retries, want %d (the follower is not resubmitted)", got, k)
	}
	if got := len(cm.pending.ops); got != k+1 {
		t.Fatalf("%d ops parked after the refused sweep, want %d", got, k+1)
	}
	var onP00 []OpKind
	for _, op := range cm.pending.ops {
		if op.Path == "/w/p00" {
			onP00 = append(onP00, op.Kind)
		}
	}
	if !reflect.DeepEqual(onP00, []OpKind{OpCreate, OpRemove}) {
		t.Fatalf("ops parked on /w/p00 = %v, want the create ahead of the remove", onP00)
	}

	spy.refuse, spy.batches = false, nil
	before = e.region.Stats()
	cm.retryPendingOnce(false)
	// Three chunks, each one wave: the follower is in the last, and free
	// to go because /w/p00's create landed with the first.
	sizes := make([]int, len(spy.batches))
	for i, b := range spy.batches {
		sizes[i] = len(b)
	}
	if !reflect.DeepEqual(sizes, []int{8, 8, 4}) {
		t.Fatalf("sweep sent batches of %v ops, want [8 8 4]", sizes)
	}
	if len(spy.bytes)+len(spy.writes) != 0 {
		t.Fatalf("sweep made %d data writes, want none", len(spy.bytes)+len(spy.writes))
	}
	after := e.region.Stats()
	if got := after.Committed - before.Committed; got != k+1 {
		t.Fatalf("sweep committed %d ops, want %d", got, k+1)
	}
	if len(cm.pending.ops) != 0 || len(cm.pending.paths) != 0 || e.region.parkedOps() != 0 {
		t.Fatalf("after the sweep %d ops parked, paths %v, gauge %d; want none",
			len(cm.pending.ops), cm.pending.paths, e.region.parkedOps())
	}
	if e.dfs.MDS.Tree().Exists("/w/p00") || !e.dfs.MDS.Tree().Exists("/w/p18") {
		t.Fatal("DFS does not hold /w/p01../w/p18 without /w/p00")
	}
}

// TestWaveIsOneApplyBatch: whatever a dequeue holds, the backend sees
// one ApplyBatch for its ops and one WriteBatch for the bytes they owe —
// a creation under an active rmdir is discarded as the wave is built
// and never gets there, an inline setstat is a BatchSetStat carrying the
// size and none of the bytes, and a net-absence remove carries its
// marker.
func TestWaveIsOneApplyBatch(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, "/w/small", 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	// The doomed creation's cache entry is the real thing: the client's
	// create, its commit held back.
	release := holdCommits(t, e.region)
	if at, err = c.Create(at, "/w/d/doomed", 0o644); err != nil {
		t.Fatal(err)
	}
	doomed := mustEntry(t, e.region, "/w/d/doomed", "after create").Seq

	cm, spy := spiedCommitter(e)
	file := fsapi.NewFileStat(appCred, 0o644)
	written := file
	written.Inline, written.Size = []byte("data"), 4
	ops := []Op{
		{Kind: OpCreate, Path: "/w/d/doomed", Seq: doomed, Stat: file},
		{Kind: OpSetStat, Path: "/w/small", Seq: 1 << 40, Stat: written},
		{Kind: OpRemove, Path: "/w/ghost", Seq: 1<<40 + 1, NetAbsent: true},
		{Kind: OpCreate, Path: "/w/a", Seq: 1<<40 + 2, Stat: file},
		{Kind: OpCreate, Path: "/w/b", Seq: 1<<40 + 3, Stat: file},
	}
	before := e.region.Stats()
	e.region.addRemoving("/w/d")
	cm.applyOps(ops, false)
	e.region.delRemoving("/w/d")
	after := e.region.Stats()

	sized := written
	sized.Inline = nil
	want := []fsapi.BatchOp{
		{Kind: fsapi.BatchSetStat, Path: "/w/small", Stat: sized},
		{Kind: fsapi.BatchRemove, Path: "/w/ghost", IfExists: true},
		{Kind: fsapi.BatchCreate, Path: "/w/a", Stat: file},
		{Kind: fsapi.BatchCreate, Path: "/w/b", Stat: file},
	}
	if len(spy.batches) != 1 || !reflect.DeepEqual(spy.batches[0], want) {
		t.Fatalf("backend saw batches %+v, want one of %+v", spy.batches, want)
	}
	_, ino, err := e.dfs.MDS.Tree().LookupIno("/w/small")
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes := [][]fsapi.FileWrite{{{Path: "/w/small", Ino: ino, Data: []byte("data")}}}; !reflect.DeepEqual(spy.bytes, wantBytes) || len(spy.writes) != 0 {
		t.Fatalf("backend saw data writes %v and %v, want one WriteBatch of /w/small", spy.bytes, spy.writes)
	}
	if got := after.Committed - before.Committed; got != 4 {
		t.Fatalf("committed %d ops, want 4", got)
	}
	if after.Discarded != before.Discarded+1 || len(cm.pending.ops) != 0 {
		t.Fatalf("discarded %d, parked %d; want the doomed create discarded and nothing parked",
			after.Discarded-before.Discarded, len(cm.pending.ops))
	}
	if after.BackendRPCs-before.BackendRPCs != 2 || after.BatchRPCs-before.BatchRPCs != 1 || after.BatchedOps-before.BatchedOps != 4 {
		t.Fatalf("wave accounted %+v over %+v, want 2 backend round trips, 1 batch of 4", after, before)
	}
	// The discard was concluded while the wave was built, so its cleanup
	// left beside the wave's batch; the wave's own are still waiting for
	// the next one.
	if _, ok := findEntry(t, e.region, "/w/d/doomed"); ok {
		t.Fatal("discarded create's cache entry not settled away beside the batch")
	}
	if got := after.CacheRPCs - before.CacheRPCs; got != 1 || len(cm.settles) != 4 {
		t.Fatalf("%d cache round trips, %d settles waiting; want the discard's one and the wave's four", got, len(cm.settles))
	}
	cm.settle()
	if e.dfs.MDS.Tree().Exists("/w/d/doomed") || !e.dfs.MDS.Tree().Exists("/w/a") || !e.dfs.MDS.Tree().Exists("/w/b") {
		t.Fatal("DFS does not hold exactly the two plain creates")
	}
	if data, _, err := e.dfs.NewClient("direct", appCred, 0, 0).ReadAt(at, "/w/small", 0, 16); err != nil || string(data) != "data" {
		t.Fatalf("inline write reached the DFS as %q, %v", data, err)
	}
	// The queued copy of the doomed create commits once the window is
	// shut: its entry is gone, so the region just gets it back clean.
	release()
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
}

// TestDeadShardCostsOnlyItsOwnOps: a wave that spans a live and a dead
// MDS shard keeps the live shard's answers. The remove on the live
// shard commits on the wave's one round trip and is never sent again;
// the create on the dead shard parks on ErrClosed and commits after
// recovery. (Throwing the whole wave's answers away re-sent the applied
// remove until its retry budget dropped it, on ErrNotExist.)
func TestDeadShardCostsOnlyItsOwnOps(t *testing.T) {
	e := newEnvSharded(t, 1, 2, nil)
	c := e.client(t, "node0")
	// One workspace directory on each shard with a committed file under
	// it, so the commit backend's dentry cache holds both parents and the
	// dead shard is met by the batch itself, not by ancestor resolution.
	var dirs [2]string
	for i := 0; dirs[0] == "" || dirs[1] == ""; i++ {
		d := fmt.Sprintf("/w/d%d", i)
		if k := e.dfs.Shards.Owner(d); dirs[k] == "" {
			dirs[k] = d
		}
	}
	var at vclock.Time
	var err error
	for _, d := range dirs {
		if at, err = c.Mkdir(at, d, 0o755); err != nil {
			t.Fatal(err)
		}
		if at, err = c.Create(at, d+"/old", 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	release := holdCommits(t, e.region)
	e.dfs.KillShard(1)
	if at, err = c.Remove(at, dirs[0]+"/old"); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, dirs[1]+"/new", 0o644); err != nil {
		t.Fatal(err)
	}
	before, writes := e.region.Stats(), e.dfs.MDSes[0].Stats().Writes
	release()
	// The wave and its opportunistic sweep run against the dead shard.
	for deadline := time.Now().Add(5 * time.Second); e.region.Stats().Retries == before.Retries; {
		if time.Now().After(deadline) {
			t.Fatalf("commit process never resubmitted: %+v", e.region.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	e.dfs.RecoverShard(1)
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	after := e.region.Stats()
	if after.Dropped != before.Dropped || after.Committed != before.Committed+2 {
		t.Fatalf("committed %d, dropped %d; want both ops committed: %+v",
			after.Committed-before.Committed, after.Dropped-before.Dropped, after)
	}
	if got := e.dfs.MDSes[0].Stats().Writes - writes; got != 1 {
		t.Fatalf("live shard applied %d writes, want the remove exactly once", got)
	}
	if after.BatchFallbacks != before.BatchFallbacks {
		t.Fatalf("DFS client reported %d batch-level errors, want none", after.BatchFallbacks-before.BatchFallbacks)
	}
	if e.dfs.OracleExists(dirs[0]+"/old") || !e.dfs.OracleExists(dirs[1]+"/new") {
		t.Fatal("DFS does not hold the remove and the create")
	}
	if ent := mustEntry(t, e.region, dirs[1]+"/new", "after recovery"); ent.Dirty || ent.Removed {
		t.Fatalf("%s after recovery = %+v, want a clean live entry", ent.Path, ent)
	}
}

// TestRemovesUnderActiveRmdirRideTheBatch: ops dequeued while their
// directory's Rmdir holds its window open ride the wave like any other
// — removes (a net-absence remove among them) in its one apply_batch,
// committed or, when the DFS never had the file, discarded; an inline
// setstat beside them, its bytes in the wave's WriteBatch — while a
// create in the same wave meets the discard rule without reaching the
// DFS. CommitBatchSize is a
// width, not a second path: at 1 the same code sends one op per round
// trip and every outcome and every cleanup is the same.
func TestRemovesUnderActiveRmdirRideTheBatch(t *testing.T) {
	type outcome struct {
		committed, discarded, dropped, retries int64
		cache                                  []CacheEntry
	}
	run := func(t *testing.T, batchSize int) (outcome, RegionStats) {
		e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.CommitBatchSize = batchSize })
		c := e.client(t, "node0")
		at, err := c.Mkdir(0, "/w/d", 0o755)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"f0", "f1", "f2", "f3", "f4", "kept"} {
			if at, err = c.Create(at, "/w/d/"+name, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		// f4 vanishes from the DFS behind the region's back: its remove
		// will come back ErrNotExist without being a net-absence remove.
		direct := e.dfs.NewClient("direct", appCred, 0, 0)
		if _, err := direct.Remove(at, "/w/d/f4"); err != nil {
			t.Fatal(err)
		}

		release := holdCommits(t, e.region)
		for i := 0; i < 5; i++ {
			if at, err = c.Remove(at, fmt.Sprintf("/w/d/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = c.Create(at, "/w/d/late", 0o644); err != nil {
			t.Fatal(err)
		}
		if at, err = c.WriteAt(at, "/w/d/kept", 0, []byte("data")); err != nil {
			t.Fatal(err)
		}
		// A net-absence remove is the coalescer's product and at width 1
		// nothing coalesces, so both widths get theirs queued by hand.
		n0 := e.region.byName["node0"]
		n0.inflight.take("/w/d/ghost", 0)
		if err := n0.queue.Push(Op{Kind: OpRemove, Path: "/w/d/ghost", Node: "node0", node: n0,
			Time: at, Seq: e.region.seq.Add(1), NetAbsent: true}); err != nil {
			t.Fatal(err)
		}
		before := e.region.Stats()
		// The window an Rmdir of /w/d holds open from before its barrier
		// until it returns.
		e.region.addRemoving("/w/d")
		release()
		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		e.region.delRemoving("/w/d")
		after := e.region.Stats()

		for i := 0; i < 5; i++ {
			if p := fmt.Sprintf("/w/d/f%d", i); e.dfs.MDS.Tree().Exists(p) {
				t.Fatalf("%s still on the DFS", p)
			}
		}
		if e.dfs.MDS.Tree().Exists("/w/d/late") {
			t.Fatal("create under an active rmdir reached the DFS")
		}
		if data, _, err := direct.ReadAt(at, "/w/d/kept", 0, 16); err != nil || string(data) != "data" {
			t.Fatalf("inline write under an active rmdir reached the DFS as %q, %v", data, err)
		}
		dump, err := e.region.DumpCache()
		if err != nil {
			t.Fatal(err)
		}
		for i := range dump {
			dump[i].Stat = fsapi.Stat{} // times differ between runs
		}
		delta := RegionStats{
			CacheRPCs:   after.CacheRPCs - before.CacheRPCs,
			BackendRPCs: after.BackendRPCs - before.BackendRPCs,
			BatchRPCs:   after.BatchRPCs - before.BatchRPCs,
			BatchedOps:  after.BatchedOps - before.BatchedOps,
		}
		return outcome{
			committed: after.Committed - before.Committed,
			discarded: after.Discarded - before.Discarded,
			dropped:   after.Dropped - before.Dropped,
			retries:   after.Retries - before.Retries,
			cache:     dump,
		}, delta
	}

	batched, rpcs := run(t, 8)
	if batched.committed != 6 || batched.discarded != 2 || batched.dropped != 0 || batched.retries != 0 {
		t.Fatalf("wave outcome = %+v, want 4 removes, the net-absence remove and the write committed, the f4 remove and the create discarded", batched)
	}
	for _, ent := range batched.cache {
		if ent.Path != "/w" && ent.Path != "/w/d" && (ent.Path != "/w/d/kept" || ent.Dirty) {
			t.Fatalf("cache still holds %+v: marker or discarded create not cleaned, or the write still dirty", ent)
		}
	}
	// One wave: the six removes and the setstat in one apply_batch, the
	// setstat's bytes, and nothing else to the DFS (the create never got
	// there). Two mutate_multi to the region's one cache server: the
	// discarded create's cleanup, queued as the wave was built, beside the
	// wave's batch, and the wave's own seven before the barrier arrival.
	if rpcs.BatchRPCs != 1 || rpcs.BatchedOps != 7 || rpcs.BackendRPCs != 2 || rpcs.CacheRPCs != 2 {
		t.Fatalf("wave cost = %+v, want 1 apply_batch of 7 ops, 2 backend and 2 cache round trips", rpcs)
	}

	// Seven waves of one: each one's cleanup leaves beside the next one's
	// batch (the discard's with f4's), the last before the barrier arrival.
	single, rpcs := run(t, 1)
	if rpcs.BatchRPCs != 7 || rpcs.BatchedOps != 7 || rpcs.BackendRPCs != 8 || rpcs.CacheRPCs != 7 {
		t.Fatalf("width 1 cost = %+v, want the same 7 ops one per apply_batch, the bytes, and a settle per wave", rpcs)
	}
	if !reflect.DeepEqual(single, batched) {
		t.Fatalf("width 8 diverged from width 1:\n width 8 %+v\n width 1 %+v", batched, single)
	}
}

// TestRmdirCleansSubtreeInOneRoundTripPerOwner: Rmdir drops a removed
// subtree from the cache with one mutate_multi per owning cache server,
// not one delete per path; the invalidation generation moves before the
// first of them (the ordering contract in Rmdir); and nothing of the
// sweep lingers — the directory can be re-created at once and the new
// incarnation commits.
func TestRmdirCleansSubtreeInOneRoundTripPerOwner(t *testing.T) {
	e := newEnv(t, 4, nil)
	c := e.client(t, "node0")
	const files = 256
	at, err := c.Mkdir(0, "/w/big", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		if at, err = c.Create(at, fmt.Sprintf("/w/big/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if items := e.region.CacheStats().Items; items < files+2 {
		t.Fatalf("cache holds %d items before the rmdir, want the whole subtree", items)
	}

	gen := e.region.invalGen.Load()
	var genAtFirstSweep uint64
	hook := &rpcHook{}
	hook.fn = func(method string) {
		if method == "mutate_multi" && genAtFirstSweep == 0 {
			genAtFirstSweep = e.region.invalGen.Load()
		}
	}
	e.bus.SetObserver(hook)
	at, err = c.Rmdir(at, "/w/big")
	e.bus.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := hook.count("mutate_multi"), len(e.region.ring.Members()); got == 0 || got > limit {
		t.Fatalf("rmdir of %d files cleaned the cache in %d mutate_multi RPCs, want 1..%d (ring size)", files, got, limit)
	}
	if genAtFirstSweep != gen+1 {
		t.Fatalf("invalidation generation at the first cache delete = %d, want %d: bump must precede the sweep", genAtFirstSweep, gen+1)
	}
	if items := e.region.CacheStats().Items; items != 1 {
		t.Fatalf("%d cache items left after the rmdir, want only the workspace root", items)
	}

	if at, err = c.Mkdir(at, "/w/big", 0o700); err != nil {
		t.Fatalf("re-create after rmdir: %v", err)
	}
	if _, err = c.Create(at, "/w/big/f000", 0o600); err != nil {
		t.Fatalf("re-create after rmdir: %v", err)
	}
	wantCommitted(t, e, "/w/big", mustEntry(t, e.region, "/w/big", "re-created").Seq)
	wantCommitted(t, e, "/w/big/f000", mustEntry(t, e.region, "/w/big/f000", "re-created").Seq)
}

// TestRenameCleanupKeepsRacingCreate: Rename drops the moved subtree's
// old paths from the cache in one mutate_multi per owner, each path
// exactly once. A create that races in after the invalidation bump lands
// on an old path as soon as that path's entry is gone — the name is free
// on the DFS — and the rest of the sweep must not take the newer
// incarnation with it.
func TestRenameCleanupKeepsRacingCreate(t *testing.T) {
	e := newEnv(t, 4, nil)
	c, racer := e.client(t, "node0"), e.client(t, "node1")
	at, err := c.Mkdir(0, "/w/src", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	const files = 64
	for i := 0; i < files; i++ {
		if at, err = c.Create(at, fmt.Sprintf("/w/src/f%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	// After each sweep RPC the racer tries to take the old name: it gets
	// ErrExist until the stale /w/src entry has been swept, then wins —
	// still inside the rename, with sweeps of other owners to come unless
	// /w/src's owner happened to be the last.
	var raced error = fsapi.ErrExist
	hook := &rpcHook{}
	hook.fn = func(method string) {
		if method == "mutate_multi" && errors.Is(raced, fsapi.ErrExist) {
			_, raced = racer.Mkdir(vclock.Time(1<<30), "/w/src", 0o700)
		}
	}
	e.bus.SetObserver(hook)
	_, err = c.Rename(at, "/w/src", "/w/dst")
	e.bus.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if raced != nil {
		t.Fatalf("racing mkdir never got the freed name: %v", raced)
	}
	// One more than the ring size: the racer's mkdir may have committed,
	// and settled, before the observer came off.
	if got, limit := hook.count("mutate_multi"), len(e.region.ring.Members())+1; got == 0 || got > limit {
		t.Fatalf("rename swept %d old paths in %d mutate_multi RPCs, want 1..%d (ring size + the racer's commit)", files+1, got, limit)
	}
	reborn := mustEntry(t, e.region, "/w/src", "after the rename returned")
	if reborn.Removed || reborn.Stat.Mode != 0o700 {
		t.Fatalf("/w/src after the sweep = %+v, want the racer's mkdir", reborn)
	}
	wantCommitted(t, e, "/w/src", reborn.Seq)
	for i := 0; i < files; i++ {
		if _, ok := findEntry(t, e.region, fmt.Sprintf("/w/src/f%02d", i)); ok {
			t.Fatalf("old path /w/src/f%02d still cached after the rename", i)
		}
		if p := fmt.Sprintf("/w/dst/f%02d", i); !e.dfs.MDS.Tree().Exists(p) {
			t.Fatalf("%s missing after the rename", p)
		}
	}
}

// waveCounter is a Backend wrapper that counts what the commit side
// sends: the size of each ApplyBatch and the files of each WriteBatch.
// The client side sends neither in the tests that use it.
type waveCounter struct {
	Backend
	*waveCounts
}

// waveCounts is what every waveCounter of one region adds to.
type waveCounts struct {
	mu      sync.Mutex
	batches []int
	bytes   [][]string
}

func (w *waveCounter) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	w.mu.Lock()
	w.batches = append(w.batches, len(ops))
	w.mu.Unlock()
	return w.Backend.ApplyBatch(at, ops)
}

func (w *waveCounter) WriteBatch(at vclock.Time, files []fsapi.FileWrite) ([]error, vclock.Time, error) {
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.Path
	}
	w.mu.Lock()
	w.bytes = append(w.bytes, paths)
	w.mu.Unlock()
	return w.Backend.WriteBatch(at, files)
}

// TestWaveWithPayloadCostsOneBatchAndOneDataFanOut: eight ops in one
// dequeue — four creates of which three carry bytes, an inline setstat,
// three removes — are one apply_batch of eight ops and one WriteBatch of
// four files: at most one write_multi per data server, no lookup (the
// data path asks the MDS nothing), no second apply_batch (the setstat's
// metadata rode the wave's), and one mutate_multi. What lands is what
// was acked, read back through a client that knows nothing of Pacon.
func TestWaveWithPayloadCostsOneBatchAndOneDataFanOut(t *testing.T) {
	var seen waveCounts
	e := newEnvDeps(t, 1, func(cfg *RegionConfig) { cfg.CommitBatchSize = 16 }, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return &waveCounter{Backend: inner(node), waveCounts: &seen} }
	})
	c := e.client(t, "node0")
	var at vclock.Time
	var err error
	step := func(done vclock.Time, serr error) {
		t.Helper()
		if at, err = done, serr; err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/w/r0", "/w/r1", "/w/r2", "/w/s"} {
		step(c.Create(at, p, 0o644))
	}
	step(e.region.Drain(at))

	content := map[string]string{"/w/c0": "zero", "/w/c1": "one one", "/w/c2": "two two two", "/w/c3": "", "/w/s": "rewritten"}
	release := holdCommits(t, e.region)
	for _, p := range []string{"/w/c0", "/w/c1", "/w/c2", "/w/c3"} {
		step(c.Create(at, p, 0o644))
		if content[p] != "" {
			step(c.WriteAt(at, p, 0, []byte(content[p])))
		}
	}
	step(c.WriteAt(at, "/w/s", 0, []byte(content["/w/s"])))
	for _, p := range []string{"/w/r0", "/w/r1", "/w/r2"} {
		step(c.Remove(at, p))
	}
	seen.mu.Lock()
	seen.batches, seen.bytes = nil, nil
	seen.mu.Unlock()
	before := e.region.Stats()
	hook := &rpcHook{}
	e.bus.SetObserver(hook)
	release()
	step(e.region.Drain(at))
	e.bus.SetObserver(nil)
	after := e.region.Stats()

	if !reflect.DeepEqual(seen.batches, []int{8}) {
		t.Fatalf("ApplyBatch sizes = %v, want one batch of 8", seen.batches)
	}
	if want := [][]string{{"/w/c0", "/w/c1", "/w/c2", "/w/s"}}; !reflect.DeepEqual(seen.bytes, want) {
		t.Fatalf("WriteBatch files = %v, want %v", seen.bytes, want)
	}
	if got := hook.count("apply_batch"); got != 1 {
		t.Fatalf("%d apply_batch round trips, want 1: a one-op batch for the setstat is back", got)
	}
	if got := hook.count("write_multi"); got < 1 || got > len(e.dfs.Data) {
		t.Fatalf("%d write_multi round trips, want 1..%d (one per data server touched)", got, len(e.dfs.Data))
	}
	if got := hook.count("lookup"); got != 0 {
		t.Fatalf("%d lookups on the MDS: the data path is asking for stats again", got)
	}
	if got := hook.count("mutate_multi"); got != 1 {
		t.Fatalf("%d mutate_multi round trips, want the wave's one", got)
	}
	if after.BatchRPCs-before.BatchRPCs != 1 || after.BatchedOps-before.BatchedOps != 8 ||
		after.BackendRPCs-before.BackendRPCs != 2 || after.Committed-before.Committed != 8 || after.Dropped != before.Dropped {
		t.Fatalf("wave accounted %+v over %+v, want 1 batch of 8, 2 backend round trips, 8 committed", after, before)
	}

	raw := e.dfs.NewClient("direct", appCred, 0, 0)
	for p, want := range content {
		st, _, err := raw.Stat(at, p)
		if err != nil || st.Size != int64(len(want)) {
			t.Fatalf("%s on the DFS = %+v, %v; want size %d", p, st, err, len(want))
		}
		if got, _, err := raw.ReadAt(at, p, 0, 64); err != nil || string(got) != want {
			t.Fatalf("%s on the DFS holds %q, %v; want %q", p, got, err, want)
		}
		if ent := mustEntry(t, e.region, p, "after the drain"); ent.Dirty {
			t.Fatalf("%s still dirty after the drain: %+v", p, ent)
		}
	}
	for _, p := range []string{"/w/r0", "/w/r1", "/w/r2"} {
		if _, ok := findEntry(t, e.region, p); ok || e.dfs.MDS.Tree().Exists(p) {
			t.Fatalf("%s survived its remove (cached: %v)", p, ok)
		}
	}
}

// TestInlineSetStatBytesResubmitOnErrClosed: an inline setstat is its
// bytes. When the data path answers them with a transient error the
// setstat takes that as its result, parks, and lands on resubmission —
// metadata sent again, bytes sent again, the same content on the DFS.
func TestInlineSetStatBytesResubmitOnErrClosed(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, err := c.Create(0, "/w/s", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	cm, spy := spiedCommitter(e)
	st := fsapi.NewFileStat(appCred, 0o644)
	st.Inline, st.Size = []byte("payload"), 7
	before := e.region.Stats()
	spy.failBytes = fmt.Errorf("data server gone: %w", fsapi.ErrClosed)
	cm.applyOps([]Op{taken(cm.node, Op{Kind: OpSetStat, Path: "/w/s", Seq: 1 << 40, Stat: st})}, false)
	if s := e.region.Stats(); len(cm.pending.ops) != 1 || s.Committed != before.Committed || s.Dropped != before.Dropped {
		t.Fatalf("after the failed bytes: %d parked, %+v; want the setstat parked, nothing committed or dropped", len(cm.pending.ops), s)
	}
	cm.retryPendingOnce(false)
	cm.settle()
	after := e.region.Stats()
	if len(cm.pending.ops) != 0 || after.Committed != before.Committed+1 || after.Retries != before.Retries+1 || after.Dropped != before.Dropped {
		t.Fatalf("after the resubmission: %d parked, %+v over %+v; want one retry, one commit", len(cm.pending.ops), after, before)
	}
	if len(spy.batches) != 2 || len(spy.bytes) != 2 || !reflect.DeepEqual(spy.bytes[0], spy.bytes[1]) {
		t.Fatalf("backend saw %d batches and byte writes %v, want the setstat and the same bytes twice", len(spy.batches), spy.bytes)
	}
	raw := e.dfs.NewClient("direct", appCred, 0, 0)
	if got, _, err := raw.ReadAt(at, "/w/s", 0, 64); err != nil || string(got) != "payload" {
		t.Fatalf("DFS holds %q, %v; want the acked bytes", got, err)
	}
}

// TestSettleLeavesBesideTheNextBatch: a wave's cleanup is not waited for
// at the wave's end. At width 1, create f and remove f are two waves: the
// create's clear leaves beside the remove's apply_batch and, guarded by
// the create's seq, does nothing to the marker that replaced its entry;
// the remove's own delete goes before the barrier arrival. Neither entry
// nor file is left, in two mutate_multi round trips.
func TestSettleLeavesBesideTheNextBatch(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.CommitBatchSize = 1 })
	c := e.client(t, "node0")
	release := holdCommits(t, e.region)
	at, err := c.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Remove(at, "/w/f"); err != nil {
		t.Fatal(err)
	}
	// After the first mutate_multi — the create's clear, riding the
	// remove's batch — the marker must still be there, still dirty.
	var afterFirst []CacheEntry
	hook := &rpcHook{}
	hook.fn = func(method string) {
		if method == "mutate_multi" && afterFirst == nil {
			afterFirst, _ = e.region.DumpCache()
		}
	}
	e.bus.SetObserver(hook)
	release()
	_, err = e.region.Drain(at)
	e.bus.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if hook.count("apply_batch") != 2 || hook.count("mutate_multi") != 2 {
		t.Fatalf("%d apply_batch, %d mutate_multi; want two waves and a settle each", hook.count("apply_batch"), hook.count("mutate_multi"))
	}
	marker := false
	for _, ent := range afterFirst {
		marker = marker || ent.Path == "/w/f" && ent.Removed && ent.Dirty
	}
	if !marker {
		t.Fatalf("after the create's clear the cache held %+v, want /w/f's removed marker untouched", afterFirst)
	}
	if _, ok := findEntry(t, e.region, "/w/f"); ok || e.dfs.MDS.Tree().Exists("/w/f") {
		t.Fatalf("/w/f survived: cached %v, on the DFS %v", ok, e.dfs.MDS.Tree().Exists("/w/f"))
	}
}

// TestIdleNodeSettlesWithoutABarrier: a wave with nothing queued behind
// it does not wait for a batch to leave beside: its entries become clean
// on their own, no barrier driving the commit process, and eviction can
// take them.
func TestIdleNodeSettlesWithoutABarrier(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	barriers := e.region.Stats()
	at, err := c.Create(0, "/w/lone", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if ent := mustEntry(t, e.region, "/w/lone", "while committing"); !ent.Dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a lone wave's entry never became clean: its settle is waiting for a batch that does not come")
		}
	}
	if s := e.region.Stats(); s.BarriersFull != barriers.BarriersFull || s.BarriersScoped != barriers.BarriersScoped {
		t.Fatalf("a barrier ran: %+v", s)
	}
	evict(t, e.region, c, at, "/w/lone", false)
	if _, ok := findEntry(t, e.region, "/w/lone"); ok {
		t.Fatal("eviction refused the settled entry")
	}
}

// TestDrainLeavesNoDirtyKey: every cleanup reaches the cache before a
// commit process reports its arrival, so the moment Drain returns no
// entry is dirty and no marker is left — nothing to poll for.
func TestDrainLeavesNoDirtyKey(t *testing.T) {
	e := newEnv(t, 2, nil)
	a, b := e.client(t, "node0"), e.client(t, "node1")
	var at vclock.Time
	var err error
	for round := 0; round < 4; round++ {
		for i := 0; i < 40; i++ {
			c := a
			if i%2 == 1 {
				c = b
			}
			p := fmt.Sprintf("/w/f%d-%02d", round, i)
			if at, err = c.Create(at, p, 0o644); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if at, err = c.WriteAt(at, p, 0, []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			if i%5 == 0 {
				if at, err = c.Remove(at, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if dirty, removed := e.region.headerCounts(); dirty != 0 || removed != 0 {
			t.Fatalf("round %d: Drain returned with %d dirty keys and %d markers", round, dirty, removed)
		}
	}
}

// TestWaveCompletesAtTheSameVirtualTimeOnBusAndTCP: two waves with
// payload — the second's apply_batch with the first's settles beside it,
// each one's bytes fanned out over three data servers, the settles over
// two cache servers — end at the same virtual instant whether the
// handlers run in place or across loopback sockets: a fan-out costs its
// slowest branch from the instant it left, on either transport.
func TestWaveCompletesAtTheSameVirtualTimeOnBusAndTCP(t *testing.T) {
	run := func(net rpc.Network) (vclock.Time, RegionStats) {
		model := vclock.Default()
		cluster := dfs.NewCluster(net, model, rootCred, "storage0", []string{"storage1", "storage2", "storage3"})
		if _, err := cluster.NewClient("admin", rootCred, 0, 0).Mkdir(0, "/w", 0o777); err != nil {
			t.Fatal(err)
		}
		newBackend := func(node string) Backend { return cluster.NewClient(node, appCred, 4096, time.Hour) }
		region, err := NewRegion(RegionConfig{Name: "app", Workspace: "/w", Nodes: []string{"node0", "node1"}, Cred: appCred, Model: model},
			Deps{Bus: net, NewBackend: newBackend})
		if err != nil {
			t.Fatal(err)
		}
		defer region.Close()
		cm := region.newCommitter(region.byName["node0"], newBackend("node0"))
		const at = vclock.Time(1 << 30)
		file := func(n int) fsapi.Stat {
			st := fsapi.NewFileStat(appCred, 0o644)
			st.Mtime, st.Ctime = 1, 1
			if n > 0 {
				st.Inline, st.Size = make([]byte, n), int64(n)
			}
			return st
		}
		first := make([]Op, 8)
		for i := range first {
			first[i] = Op{Kind: OpCreate, Path: fmt.Sprintf("/w/f%d", i), Seq: uint64(1<<40 + i), Time: at, Stat: file(i * 300)}
		}
		cm.applyOps(first, false)
		cm.applyOps([]Op{
			{Kind: OpRemove, Path: "/w/f0", Seq: 1<<41 + 0, Time: at},
			{Kind: OpRemove, Path: "/w/f1", Seq: 1<<41 + 1, Time: at},
			{Kind: OpSetStat, Path: "/w/f2", Seq: 1<<41 + 2, Time: at, Stat: file(4000)},
			{Kind: OpCreate, Path: "/w/g", Seq: 1<<41 + 3, Time: at, Stat: file(64)},
		}, false)
		cm.settle()
		touched := 0
		for _, d := range cluster.Data {
			if d.ChunkCount() > 0 {
				touched++
			}
		}
		if s := region.Stats(); touched != 3 || s.Committed != 12 || s.Dropped != 0 || len(cm.pending.ops) != 0 {
			t.Fatalf("%d data servers touched, %+v, %d parked; want all three and twelve commits", touched, s, len(cm.pending.ops))
		}
		return cm.now, region.Stats()
	}
	tcp := rpc.NewTCPNetwork()
	defer tcp.Close()
	busDone, busStats := run(rpc.NewBus())
	tcpDone, tcpStats := run(tcp)
	if busDone != tcpDone {
		t.Fatalf("two waves with payload end at %v on the bus, %v over TCP", busDone, tcpDone)
	}
	if busStats != tcpStats {
		t.Fatalf("the waves cost %+v on the bus, %+v over TCP", busStats, tcpStats)
	}
}
