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

// TestRemovesUnderActiveRmdirRideTheBatch: ops dequeued while their
// directory's Rmdir holds its window open used to leave the batch path
// one and all. Only creations need to: removes ride one apply_batch and
// are committed — or, when the DFS never had the file, discarded — and
// cleaned exactly as the singleton path does it (CommitBatchSize 1 is
// that path), while a create in the same wave still meets the discard
// rule without reaching the DFS.
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
		for i := 0; i < 5; i++ {
			if at, err = c.Create(at, fmt.Sprintf("/w/d/f%d", i), 0o644); err != nil {
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
	if batched.committed != 4 || batched.discarded != 2 || batched.dropped != 0 || batched.retries != 0 {
		t.Fatalf("wave outcome = %+v, want 4 committed removes, the f4 remove and the create discarded", batched)
	}
	for _, ent := range batched.cache {
		if ent.Path != "/w" && ent.Path != "/w/d" {
			t.Fatalf("cache still holds %+v: marker or discarded create not cleaned", ent)
		}
	}
	// One wave: the five removes in one apply_batch and nothing else to
	// the DFS (the create never got there), then one settle_multi to the
	// region's one cache server for all six cleanups.
	if rpcs.BatchRPCs != 1 || rpcs.BatchedOps != 5 || rpcs.BackendRPCs != 1 || rpcs.CacheRPCs != 1 {
		t.Fatalf("wave cost = %+v, want 1 apply_batch of 5 ops, 1 backend and 1 cache round trip", rpcs)
	}

	single, rpcs := run(t, 1)
	if rpcs.BatchRPCs != 0 {
		t.Fatalf("CommitBatchSize 1 still batched: %+v", rpcs)
	}
	if !reflect.DeepEqual(single, batched) {
		t.Fatalf("batched wave diverged from the singleton path:\n batched %+v\n single  %+v", batched, single)
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
	if got := hook.count("delete"); got != 0 {
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
	if got := hook.count("delete"); got != 0 {
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
