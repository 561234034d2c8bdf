package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
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
// ApplyBatch and WriteAt — the only mutations a Backend has — and
// forwards them unless told to refuse every op with a resubmittable
// error. Driven from a test committer's one goroutine, so it needs no
// lock.
type commitSpy struct {
	Backend
	refuse  bool
	batches [][]fsapi.BatchOp
	writes  []string
}

func (s *commitSpy) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	s.batches = append(s.batches, append([]fsapi.BatchOp(nil), ops...))
	if !s.refuse {
		return s.Backend.ApplyBatch(at, ops)
	}
	return refused(len(ops), fsapi.ErrNotExist), at, nil
}

func (s *commitSpy) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	s.writes = append(s.writes, p)
	return s.Backend.WriteAt(at, p, off, data)
}

// spiedCommitter returns a commit process of node0 that no queue feeds,
// applying through a commitSpy over the node's DFS client.
func spiedCommitter(e *env) (*committer, *commitSpy) {
	spy := &commitSpy{Backend: e.region.deps.NewBackend("node0")}
	return e.region.newCommitter("node0", spy), spy
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
		ops = append(ops, Op{Kind: OpCreate, Path: fmt.Sprintf("/w/p%02d", i), Seq: uint64(i + 1),
			Stat: fsapi.NewFileStat(appCred, 0o644)})
	}
	// A same-path follower of the first op: it must stay behind it.
	ops = append(ops, Op{Kind: OpRemove, Path: "/w/p00", Seq: k + 1})

	spy.refuse = true
	cm.applyOps(ops, false)
	if got := len(cm.pending.ops); got != k+1 {
		t.Fatalf("%d ops parked, want %d", got, k+1)
	}
	if got := e.region.parked.Load(); got != k+1 {
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
	if len(spy.writes) != 0 {
		t.Fatalf("sweep made %d writes, want none", len(spy.writes))
	}
	after := e.region.Stats()
	if got := after.Committed - before.Committed; got != k+1 {
		t.Fatalf("sweep committed %d ops, want %d", got, k+1)
	}
	if len(cm.pending.ops) != 0 || len(cm.pending.paths) != 0 || e.region.parked.Load() != 0 {
		t.Fatalf("after the sweep %d ops parked, paths %v, gauge %d; want none",
			len(cm.pending.ops), cm.pending.paths, e.region.parked.Load())
	}
	if e.dfs.MDS.Tree().Exists("/w/p00") || !e.dfs.MDS.Tree().Exists("/w/p18") {
		t.Fatal("DFS does not hold /w/p01../w/p18 without /w/p00")
	}
}

// TestWaveIsOneApplyBatch: whatever a dequeue holds, the backend sees
// one ApplyBatch for its metadata ops and one WriteAt per data write —
// a creation under an active rmdir is discarded as the wave is built
// and never gets there, an inline setstat is a data write, and a
// net-absence remove carries its marker.
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

	want := []fsapi.BatchOp{
		{Kind: fsapi.BatchRemove, Path: "/w/ghost", IfExists: true},
		{Kind: fsapi.BatchCreate, Path: "/w/a", Stat: file},
		{Kind: fsapi.BatchCreate, Path: "/w/b", Stat: file},
	}
	if len(spy.batches) != 1 || !reflect.DeepEqual(spy.batches[0], want) {
		t.Fatalf("backend saw batches %+v, want one of %+v", spy.batches, want)
	}
	if !reflect.DeepEqual(spy.writes, []string{"/w/small"}) {
		t.Fatalf("backend saw writes %v, want one write of /w/small", spy.writes)
	}
	if got := after.Committed - before.Committed; got != 4 {
		t.Fatalf("committed %d ops, want 4", got)
	}
	if after.Discarded != before.Discarded+1 || len(cm.pending.ops) != 0 {
		t.Fatalf("discarded %d, parked %d; want the doomed create discarded and nothing parked",
			after.Discarded-before.Discarded, len(cm.pending.ops))
	}
	if after.BackendRPCs-before.BackendRPCs != 2 || after.BatchRPCs-before.BatchRPCs != 1 || after.BatchedOps-before.BatchedOps != 3 {
		t.Fatalf("wave accounted %+v over %+v, want 2 backend round trips, 1 batch of 3", after, before)
	}
	if _, ok := findEntry(t, e.region, "/w/d/doomed"); ok {
		t.Fatal("discarded create's cache entry not settled away")
	}
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
// setstat through its data write — while a create in the same wave
// meets the discard rule without reaching the DFS. CommitBatchSize is a
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
		e.region.trackers["node0"].add("/w/d/ghost")
		if err := e.region.queues["node0"].Push(Op{Kind: OpRemove, Path: "/w/d/ghost", Node: "node0",
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
	// One wave: the six removes in one apply_batch, the inline write, and
	// nothing else to the DFS (the create never got there), then one
	// settle_multi to the region's one cache server for all eight
	// cleanups.
	if rpcs.BatchRPCs != 1 || rpcs.BatchedOps != 6 || rpcs.BackendRPCs != 2 || rpcs.CacheRPCs != 1 {
		t.Fatalf("wave cost = %+v, want 1 apply_batch of 6 ops, 2 backend and 1 cache round trip", rpcs)
	}

	single, rpcs := run(t, 1)
	if rpcs.BatchRPCs != 6 || rpcs.BatchedOps != 6 || rpcs.BackendRPCs != 7 || rpcs.CacheRPCs != 8 {
		t.Fatalf("width 1 cost = %+v, want the same 6 ops one per apply_batch, the write, and a settle per op", rpcs)
	}
	if !reflect.DeepEqual(single, batched) {
		t.Fatalf("width 8 diverged from width 1:\n width 8 %+v\n width 1 %+v", batched, single)
	}
}

// TestRmdirCleansSubtreeInOneRoundTripPerOwner: Rmdir drops a removed
// subtree from the cache with one settle_multi per owning cache server,
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
		if method == "settle_multi" && genAtFirstSweep == 0 {
			genAtFirstSweep = e.region.invalGen.Load()
		}
	}
	e.bus.SetObserver(hook)
	at, err = c.Rmdir(at, "/w/big")
	e.bus.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := hook.count("settle_multi"), e.region.Ring().Size(); got == 0 || got > limit {
		t.Fatalf("rmdir of %d files cleaned the cache in %d settle_multi RPCs, want 1..%d (ring size)", files, got, limit)
	}
	if got := hook.count("delete_cas"); got != 0 {
		t.Fatalf("rmdir still issued %d per-path deletes", got)
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
// old paths from the cache in one settle_multi per owner, each path
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
		if method == "settle_multi" && errors.Is(raced, fsapi.ErrExist) {
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
	if got, limit := hook.count("settle_multi"), e.region.Ring().Size()+1; got == 0 || got > limit {
		t.Fatalf("rename swept %d old paths in %d settle_multi RPCs, want 1..%d (ring size + the racer's commit)", files+1, got, limit)
	}
	if got := hook.count("delete_cas"); got != 0 {
		t.Fatalf("rename still issued %d per-path deletes", got)
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
