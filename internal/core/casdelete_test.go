package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Regression tests for the lost-update races in the cleanup paths: every
// site that used to Get → decode → Delete unconditionally now deletes
// through a settle row the cache server runs under its shard lock. That leaves two orders for a conflicting write
// and a cleanup of the same path, and each test drives both: the write
// lands strictly before the cleanup is sent (the newer value must
// survive it, stay dirty, and commit) or strictly after (the path is
// simply re-added). The interleaving inside the delete itself is
// TestConditionalOpsNeverDeleteAckedCAS's, below.

// holdCommits parks every commit process inside a barrier epoch — the
// state an rmdir holds them in — so client ops issued before release()
// stay queued and their cache entries stay dirty.
func holdCommits(t testing.TB, r *Region) (release func()) {
	t.Helper()
	epoch, _, err := r.syncBarrier(0, "")
	if err != nil {
		t.Fatal(err)
	}
	return func() { r.barrier.Release(epoch, 0) }
}

// testCommitter returns a commit process of node0 that no queue feeds,
// for driving the commit module's functions directly. A cleanup they owe
// the cache reaches it at the next settle, as in the loop.
func testCommitter(e *env) *committer {
	return e.region.newCommitter(e.region.byName["node0"], e.region.deps.NewBackend("node0"))
}

// taken gives a hand-built op its node and the reference a client's take
// leaves it in the node's in-flight table, so that it parks and ends there
// as a queued op does.
func taken(n *node, op Op) Op {
	n.inflight.take(op.Path, 0)
	n.inflight.mu.Lock()
	n.inflight.pass(op.Path)
	n.inflight.mu.Unlock()
	op.node = n
	return op
}

// mustEntry returns path's cache entry or fails the test.
func mustEntry(t *testing.T, r *Region, path, why string) CacheEntry {
	t.Helper()
	ent, ok := findEntry(t, r, path)
	if !ok {
		t.Fatalf("%s: %s has no cache entry", why, path)
	}
	return ent
}

// wantCommitted drains the region and requires path to be a clean
// cached entry of incarnation seq backed by a DFS object.
func wantCommitted(t *testing.T, e *env, path string, seq uint64) {
	t.Helper()
	if _, err := e.region.Drain(vclock.Time(1 << 40)); err != nil {
		t.Fatal(err)
	}
	if ent := mustEntry(t, e.region, path, "after drain"); ent.Dirty || ent.Removed || ent.Seq != seq {
		t.Fatalf("%s after drain = %+v, want clean live seq %d", path, ent, seq)
	}
	if !e.dfs.MDS.Tree().Exists(path) {
		t.Fatalf("%s never reached the DFS", path)
	}
}

// recreate replaces path's live entry with a newer incarnation through
// the client API (rm + create-after-rm) and returns the new seq.
func recreate(t *testing.T, c *Client, r *Region, path string) uint64 {
	t.Helper()
	at, err := c.Remove(0, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(at, path, 0o600); err != nil {
		t.Fatal(err)
	}
	return mustEntry(t, r, path, "after re-create").Seq
}

// evict runs the batched eviction of p's subtree — what evictRound does
// once it has picked p: the DFS walk into the region's scratch and the
// mutate_multi fan-out.
func evict(t *testing.T, r *Region, c *Client, at vclock.Time, p string, isDir bool) vclock.Time {
	t.Helper()
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	at, err := r.evictSubtree(c, at, p, isDir)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func findEntry(t *testing.T, r *Region, path string) (CacheEntry, bool) {
	t.Helper()
	dump, err := r.DumpCache()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dump {
		if e.Path == path {
			return e, true
		}
	}
	return CacheEntry{}, false
}

// TestEvictionKeepsRacingDirtyWrite: a write that dirties a committed
// entry makes it the primary copy again. Eviction after the write must
// leave it resident and dirty (CondClean fails) until it commits;
// eviction before the write just makes the write re-load the entry.
func TestEvictionKeepsRacingDirtyWrite(t *testing.T) {
	setup := func(t *testing.T) (*env, *Client, vclock.Time) {
		e := newEnv(t, 1, nil)
		c := e.client(t, "node0")
		at, err := c.Create(0, "/w/victim", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if at, err = c.WriteAt(at, "/w/victim", 0, []byte("committed")); err != nil {
			t.Fatal(err)
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if ent := mustEntry(t, e.region, "/w/victim", "before eviction"); ent.Dirty {
			t.Fatalf("want clean cached entry before eviction, got %+v", ent)
		}
		return e, c, at
	}
	wantNewData := func(t *testing.T, e *env, c *Client) {
		t.Helper()
		at, err := e.region.Drain(vclock.Time(1 << 40))
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := c.ReadAt(at, "/w/victim", 0, 64)
		if err != nil || !bytes.Equal(data, []byte("racy-new-data")) {
			t.Fatalf("read after drain = %q, %v", data, err)
		}
		st, err := e.dfs.MDS.Tree().Lookup("/w/victim")
		if err != nil || st.Size != int64(len("racy-new-data")) {
			t.Fatalf("DFS backup = %+v, %v", st, err)
		}
	}

	t.Run("write-then-evict", func(t *testing.T) {
		e, c, at := setup(t)
		release := holdCommits(t, e.region)
		if _, err := e.client(t, "node0").WriteAt(at, "/w/victim", 0, []byte("racy-new-data")); err != nil {
			t.Fatal(err)
		}
		evict(t, e.region, c, at, "/w/victim", false)
		ent, ok := findEntry(t, e.region, "/w/victim")
		if !ok {
			t.Fatal("dirty primary copy evicted — write lost")
		}
		if !ent.Dirty || string(ent.Stat.Inline) != "racy-new-data" {
			t.Fatalf("entry after eviction = %+v", ent)
		}
		release()
		wantNewData(t, e, c)
	})

	t.Run("evict-then-write", func(t *testing.T) {
		e, c, at := setup(t)
		evict(t, e.region, c, at, "/w/victim", false)
		if _, ok := findEntry(t, e.region, "/w/victim"); ok {
			t.Fatal("clean committed entry not evicted")
		}
		if _, err := c.WriteAt(at, "/w/victim", 0, []byte("racy-new-data")); err != nil {
			t.Fatal(err)
		}
		wantNewData(t, e, c)
	})
}

// TestEvictionStillRemovesCleanEntries: the guarded path must not change
// the no-race behavior — a clean entry is evicted as before.
func TestEvictionStillRemovesCleanEntries(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, err := c.Create(0, "/w/clean", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	evict(t, e.region, c, at, "/w/clean", false)
	if _, ok := findEntry(t, e.region, "/w/clean"); ok {
		t.Fatal("clean committed entry not evicted")
	}
	if !e.dfs.MDS.Tree().Exists("/w/clean") {
		t.Fatal("eviction touched the DFS backup")
	}
}

// TestDropOpKeepsNewerIncarnation: a drop row abandons a create whose path
// has since been re-created. The seq guard must keep the newer
// incarnation; with no newer incarnation the phantom is cleaned and the
// path can be created afresh.
func TestDropOpKeepsNewerIncarnation(t *testing.T) {
	t.Run("recreate-then-drop", func(t *testing.T) {
		e := newEnv(t, 1, nil)
		c, cm := e.client(t, "node0"), testCommitter(e)
		release := holdCommits(t, e.region)
		if _, err := c.Create(0, "/w/phantom", 0o644); err != nil {
			t.Fatal(err)
		}
		old := mustEntry(t, e.region, "/w/phantom", "after create").Seq
		newer := recreate(t, c, e.region, "/w/phantom")

		cm.conclude(Op{Kind: OpCreate, Path: "/w/phantom", Seq: old}, rowDrop(OpCreate, dropReasonRetryBudget))
		cm.settle()

		ent, ok := findEntry(t, e.region, "/w/phantom")
		if !ok {
			t.Fatal("newer incarnation deleted by the drop")
		}
		if ent.Seq != newer || !ent.Dirty || ent.Removed {
			t.Fatalf("surviving entry = %+v, want dirty live seq %d", ent, newer)
		}
		release()
		wantCommitted(t, e, "/w/phantom", newer)
	})

	t.Run("drop-then-recreate", func(t *testing.T) {
		e := newEnv(t, 1, nil)
		c, cm := e.client(t, "node0"), testCommitter(e)
		release := holdCommits(t, e.region)
		if _, err := c.Create(0, "/w/phantom", 0o644); err != nil {
			t.Fatal(err)
		}
		old := mustEntry(t, e.region, "/w/phantom", "after create").Seq

		cm.conclude(Op{Kind: OpCreate, Path: "/w/phantom", Seq: old}, rowDrop(OpCreate, dropReasonRetryBudget))
		cm.settle()
		if _, ok := findEntry(t, e.region, "/w/phantom"); ok {
			t.Fatal("abandoned create's entry not cleaned")
		}

		if _, err := c.Create(0, "/w/phantom", 0o600); err != nil {
			t.Fatalf("create after the phantom was cleaned: %v", err)
		}
		fresh := mustEntry(t, e.region, "/w/phantom", "after re-create").Seq
		release()
		wantCommitted(t, e, "/w/phantom", fresh)
	})
}

// TestFinishRemoveKeepsNewerIncarnation: a landed remove's row cleans the
// committed remove's marker. A create-after-rm that replaced the marker first must
// survive; a create that arrives after the marker is gone re-adds the
// path.
func TestFinishRemoveKeepsNewerIncarnation(t *testing.T) {
	// setup commits /w/reborn, parks the commit side, and removes the
	// file: the returned seq is the queued remove's marker.
	setup := func(t *testing.T) (*env, *Client, *committer, func(), uint64) {
		e := newEnv(t, 1, nil)
		c, cm := e.client(t, "node0"), testCommitter(e)
		at, err := c.Create(0, "/w/reborn", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		release := holdCommits(t, e.region)
		if _, err := c.Remove(0, "/w/reborn"); err != nil {
			t.Fatal(err)
		}
		marker := mustEntry(t, e.region, "/w/reborn", "after rm")
		if !marker.Removed {
			t.Fatalf("rm left %+v, want a removed marker", marker)
		}
		return e, c, cm, release, marker.Seq
	}

	t.Run("create-then-finish", func(t *testing.T) {
		e, c, cm, release, marker := setup(t)
		if _, err := c.Create(0, "/w/reborn", 0o600); err != nil {
			t.Fatal(err)
		}
		live := mustEntry(t, e.region, "/w/reborn", "after create-after-rm").Seq

		cm.conclude(Op{Kind: OpRemove, Path: "/w/reborn", Seq: marker}, rowRemoveLanded)
		cm.settle()

		ent, ok := findEntry(t, e.region, "/w/reborn")
		if !ok {
			t.Fatal("create-after-rm entry deleted by the remove's settle")
		}
		if ent.Removed || !ent.Dirty || ent.Seq != live {
			t.Fatalf("surviving entry = %+v, want dirty live seq %d", ent, live)
		}
		release()
		wantCommitted(t, e, "/w/reborn", live)
	})

	t.Run("finish-then-create", func(t *testing.T) {
		e, c, cm, release, marker := setup(t)
		cm.conclude(Op{Kind: OpRemove, Path: "/w/reborn", Seq: marker}, rowRemoveLanded)
		cm.settle()
		if _, ok := findEntry(t, e.region, "/w/reborn"); ok {
			t.Fatal("committed removed marker not cleaned")
		}

		if _, err := c.Create(0, "/w/reborn", 0o600); err != nil {
			t.Fatalf("create after the marker was cleaned: %v", err)
		}
		fresh := mustEntry(t, e.region, "/w/reborn", "after re-create").Seq
		release()
		wantCommitted(t, e, "/w/reborn", fresh)
	})
}

// TestDiscardRuleKeepsNewerIncarnation: the rmdir discard rule drops a
// create under a directory being removed and cleans its cache entry —
// but only that incarnation. A newer one (created after the rmdir window
// closed) must survive the late discard; with none, the entry goes and
// the path can be created again.
func TestDiscardRuleKeepsNewerIncarnation(t *testing.T) {
	// setup commits /w/doomed, parks the commit side, and creates
	// /w/doomed/f: the returned seq is that queued create's.
	setup := func(t *testing.T) (*env, *Client, *committer, func(), uint64) {
		e := newEnv(t, 1, nil)
		c, cm := e.client(t, "node0"), testCommitter(e)
		at, err := c.Mkdir(0, "/w/doomed", 0o755)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		release := holdCommits(t, e.region)
		if _, err := c.Create(0, "/w/doomed/f", 0o644); err != nil {
			t.Fatal(err)
		}
		return e, c, cm, release, mustEntry(t, e.region, "/w/doomed/f", "after create").Seq
	}
	// discard applies create seq under an open rmdir window on /w/doomed.
	discard := func(t *testing.T, e *env, cm *committer, seq uint64) {
		t.Helper()
		e.region.addRemoving("/w/doomed")
		defer e.region.delRemoving("/w/doomed")
		before := e.region.Stats().Discarded
		cm.applyOps([]Op{{Kind: OpCreate, Path: "/w/doomed/f", Seq: seq,
			Stat: fsapi.NewFileStat(appCred, 0o644)}}, false)
		cm.settle() // no batch follows for the cleanup to leave beside
		if len(cm.pending.ops) != 0 {
			t.Fatal("discarded create must not be resubmitted")
		}
		if e.region.Stats().Discarded != before+1 {
			t.Fatal("discard not accounted")
		}
	}

	t.Run("recreate-then-discard", func(t *testing.T) {
		e, c, cm, release, old := setup(t)
		newer := recreate(t, c, e.region, "/w/doomed/f")
		discard(t, e, cm, old)

		ent, ok := findEntry(t, e.region, "/w/doomed/f")
		if !ok {
			t.Fatal("newer incarnation deleted by the discard rule")
		}
		if ent.Seq != newer || !ent.Dirty || ent.Removed {
			t.Fatalf("surviving entry = %+v, want dirty live seq %d", ent, newer)
		}
		release()
		wantCommitted(t, e, "/w/doomed/f", newer)
	})

	t.Run("discard-then-recreate", func(t *testing.T) {
		e, c, cm, release, old := setup(t)
		discard(t, e, cm, old)
		if _, ok := findEntry(t, e.region, "/w/doomed/f"); ok {
			t.Fatal("discarded create's entry not cleaned")
		}

		if _, err := c.Create(0, "/w/doomed/f", 0o600); err != nil {
			t.Fatalf("create after the discard: %v", err)
		}
		fresh := mustEntry(t, e.region, "/w/doomed/f", "after re-create").Seq
		release()
		wantCommitted(t, e, "/w/doomed/f", fresh)
	})
}

// TestEvictRoundRobinAdvancesByName: the rotation must progress through
// the directory by name even when the entry set changes between rounds —
// an index cursor re-applied to a re-read listing repeats or skips.
func TestEvictRoundRobinAdvancesByName(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at := vclock.Time(0)
	var err error
	for _, name := range []string{"e0", "e1", "e2", "e3", "e4"} {
		if at, err = c.Create(at, "/w/"+name, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	cached := func(p string) bool {
		_, ok := findEntry(t, e.region, p)
		return ok
	}
	// Round 1: first entry in name order.
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e0") {
		t.Fatal("round 1 did not evict e0")
	}
	// An entry appears at the front of the listing (committed directly on
	// the DFS): the rotation must continue at e1, not revisit from an
	// index.
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Create(at, "/w/a-front", 0o666); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e1") {
		t.Fatal("round 2 did not advance to e1 after the listing grew")
	}
	// An entry vanishes from the listing (removed on the DFS): the
	// rotation skips past the gap to the next surviving name.
	if _, err := admin.Remove(at, "/w/e2"); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e3") {
		t.Fatal("round 3 did not advance to e3 after the listing shrank")
	}
	if !cached("/w/e4") {
		t.Fatal("round 3 overshot to e4")
	}
	// Wrap-around: after the last name, rotation restarts at the front.
	if at, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if cached("/w/e4") {
		t.Fatal("round 4 did not evict e4")
	}
	if _, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	if got := e.region.evictLast; got != "a-front" {
		t.Fatalf("round 5 wrapped to %q, want a-front", got)
	}
}

// TestEvictRoundTripsPerOwner: a round deletes its subtree with one
// mutate_multi per owning cache server per chunk, not one round trip
// per path — and the region's counters say what it did.
func TestEvictRoundTripsPerOwner(t *testing.T) {
	e := newEnv(t, 4, nil)
	c := e.client(t, "node0")
	// 1,024 committed files in one top-level directory, listed through
	// the region so Readdir bulk-loads them into the cache.
	const files = 1024
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	at, err := admin.Mkdir(0, "/w/big", 0o777)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		if at, err = admin.Create(at, fmt.Sprintf("/w/big/f%04d", i), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if _, at, err = c.Readdir(at, "/w/big"); err != nil {
		t.Fatal(err)
	}
	if _, at, err = c.Stat(at, "/w/big"); err != nil {
		t.Fatal(err)
	}
	cachedBefore := e.region.CacheStats().Items

	s0, rpcs0 := e.region.Stats(), e.net.count("mutate_multi")
	if _, err = e.region.evictRound(c, at); err != nil {
		t.Fatal(err)
	}
	s1, rpcs := e.region.Stats(), e.net.count("mutate_multi")-rpcs0

	chunks := int64((files + 1 + evictChunk - 1) / evictChunk)
	if limit := chunks * int64(len(e.region.ring.Members())); rpcs > limit {
		t.Fatalf("round issued %d cache RPCs for %d paths, want <= %d (%d chunks x ring size)", rpcs, files+1, limit, chunks)
	}
	if got := s1.CacheRPCs - s0.CacheRPCs; got != rpcs {
		t.Fatalf("RegionStats.CacheRPCs moved by %d, the client issued %d", got, rpcs)
	}
	if s1.Evictions-s0.Evictions != 1 || s1.EvictedKeys-s0.EvictedKeys != files+1 {
		t.Fatalf("rounds +%d, evicted keys +%d, want 1 and %d", s1.Evictions-s0.Evictions, s1.EvictedKeys-s0.EvictedKeys, files+1)
	}
	if left := e.region.CacheStats().Items; left != cachedBefore-(files+1) {
		t.Fatalf("cache holds %d items after the round, want %d", left, cachedBefore-(files+1))
	}
	if !e.dfs.MDS.Tree().Exists("/w/big/f0000") {
		t.Fatal("eviction touched the DFS backup")
	}
}

// TestEvictSurvivesCacheServerDeath: a dead cache server fails the
// round — the caller's insert cannot proceed — but only after the live
// owners' share of the subtree has been evicted.
func TestEvictSurvivesCacheServerDeath(t *testing.T) {
	e := newEnv(t, 3, nil)
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	const dead = "node1/pacon-app"
	var live, lost []string
	for i := 0; i < 48; i++ {
		p := fmt.Sprintf("/w/d/f%02d", i)
		if at, err = c.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		if e.region.ring.Lookup(p) == dead {
			lost = append(lost, p)
		} else {
			live = append(live, p)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if len(lost) == 0 || len(live) == 0 {
		t.Fatalf("need keys on both sides of the failure: %d dead-owned, %d live", len(lost), len(live))
	}
	e.bus.Unregister(dead)
	e.region.evictMu.Lock()
	_, err = e.region.evictSubtree(c, at, "/w/d", true)
	e.region.evictMu.Unlock()
	if err == nil {
		t.Fatal("eviction over a dead cache server reported success")
	}
	if got := e.region.Stats().EvictedKeys; got < int64(len(live)) {
		t.Fatalf("evicted %d keys, want at least the %d owned by live servers", got, len(live))
	}
	resident := map[string]bool{}
	for _, n := range e.region.nodes {
		n.cache.Scan(func(key string, _ []byte) bool { resident[key] = true; return true })
	}
	for _, p := range live {
		if resident[p] {
			t.Fatalf("%s is owned by a live server and was not evicted", p)
		}
	}
	for _, p := range lost {
		if !resident[p] {
			t.Fatalf("%s vanished from the unreachable server", p)
		}
	}
}

// TestPendingSetReleasesZeroCountPaths: a path blocks its followers for
// as long as an op on it is parked and no longer — a sweep takes the
// whole set and only the ops that fail again put their paths back, so
// the path set does not grow with every path that ever parked over the
// life of the commit loop.
func TestPendingSetReleasesZeroCountPaths(t *testing.T) {
	e := newEnv(t, 1, nil)
	n := e.region.byName["node0"]
	var p pendingSet
	p.add(taken(n, Op{Path: "/w/a"}), "test")
	p.add(taken(n, Op{Path: "/w/a"}), "test")
	p.add(taken(n, Op{Path: "/w/b"}), "test")
	if !p.blocks("/w/a") || !p.blocks("/w/b") || p.blocks("/w/ghost") {
		t.Fatalf("blocked paths = %v, want /w/a and /w/b", p.paths)
	}
	swept := p.detach()
	if len(swept) != 3 || !swept[0].Parked || swept[1].Path != "/w/a" || swept[2].Path != "/w/b" {
		t.Fatalf("detached %+v, want the three parked ops in arrival order", swept)
	}
	if len(p.ops) != 0 || len(p.paths) != 0 {
		t.Fatalf("detached set still holds %d ops, paths %v", len(p.ops), p.paths)
	}
	// Only /w/a's first op fails again: its follower parks behind it,
	// /w/b is free.
	p.add(swept[0], "test")
	if !p.blocks("/w/a") || p.blocks("/w/b") {
		t.Fatalf("after the sweep blocked paths = %v, want only /w/a", p.paths)
	}
	// Parked once each, whatever a sweep moved: the gauge counts ops, and
	// only an op's terminal takes it off.
	if got := e.region.parkedOps(); got != 3 {
		t.Fatalf("parked gauge = %d, want 3", got)
	}
}

// TestRemoveCommitCleansMarkerViaCAS: end-to-end check that the normal
// (unraced) remove flow still deletes the marker after commit with the
// guarded path in place.
func TestRemoveCommitCleansMarkerViaCAS(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, _ := c.Create(0, "/w/f", 0o644)
	at, _ = c.Remove(at, "/w/f")
	at, err := e.region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findEntry(t, e.region, "/w/f"); ok {
		t.Fatal("removed marker survived commit")
	}
	if _, _, err := c.Stat(at, "/w/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after committed rm = %v", err)
	}
}

// TestMissLoadBypassesStaleDentry: a cache-miss load must read the
// authoritative backup copy, not the DFS client's dentry snapshot. The
// schedule poisons the client's dentry cache with a size-0 stat, commits
// a write asynchronously, evicts the clean entry, and stats again: the
// miss-load that follows installs its result as the region's primary
// copy, so serving the hour-long dentry TTL here would shadow the
// committed write until the next eviction (the bug the chaos harness
// first surfaced as a lost write under eviction pressure).
func TestMissLoadBypassesStaleDentry(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/fresh", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	// Evict and miss-load: the client's DFS backend now caches a
	// size-0 dentry for the path (TTL one hour of virtual time).
	at = evict(t, e.region, c, at, "/w/fresh", false)
	st, done, err := c.Stat(at, "/w/fresh")
	at = done
	if err != nil || st.Size != 0 {
		t.Fatalf("stat after first eviction = %+v, %v", st, err)
	}

	// Commit a write behind the dentry's back, then force the next
	// stat through the miss-load path again.
	if at, err = c.WriteAt(at, "/w/fresh", 0, []byte("eight by")); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	at = evict(t, e.region, c, at, "/w/fresh", false)
	if _, ok := findEntry(t, e.region, "/w/fresh"); ok {
		t.Fatal("clean entry still cached; eviction did not run")
	}

	st, _, err = c.Stat(at, "/w/fresh")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len("eight by")) {
		t.Fatalf("miss-load served a stale dentry: size = %d, want %d", st.Size, len("eight by"))
	}
}

// TestRecreateAfterEvictionAdopts: re-creating a path whose clean cache
// entry was evicted hits ErrExist at commit time (the DFS object never
// went away). Without the create-after-rm disambiguation the commit
// assumed a doomed old incarnation and resubmitted until the budget
// dropped the op; it must instead adopt the existing object and
// converge with nothing dropped.
func TestRecreateAfterEvictionAdopts(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/again", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Mkdir(at, "/w/againdir", 0o755); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	at = evict(t, e.region, c, at, "/w/again", false)
	at = evict(t, e.region, c, at, "/w/againdir", true)

	// Both re-creations are accepted by the cache (the entries are
	// gone) and must commit by adoption, not exhaust the budget.
	if at, err = c.Create(at, "/w/again", 0o600); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Mkdir(at, "/w/againdir", 0o700); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	if s := e.region.Stats(); s.Dropped != 0 {
		t.Fatalf("re-creation was dropped instead of adopted: %+v", s)
	}
	for _, p := range []string{"/w/again", "/w/againdir"} {
		ent, ok := findEntry(t, e.region, p)
		if !ok || ent.Dirty {
			t.Fatalf("%s after drain = %+v ok=%v, want clean resident entry", p, ent, ok)
		}
		if !e.dfs.MDS.Tree().Exists(p) {
			t.Fatalf("%s missing from DFS after adoption", p)
		}
	}
}

// TestConditionalOpsNeverDeleteAckedCAS hammers the settle rows against a
// concurrent writer on one key, through a real cache server running
// entryRow. The writer installs (dirty, seq n) incarnations with mutates —
// an inline write, or a create once the key is gone; the cleaner plays
// commit process and evictor for every seq the writer has released to it,
// each settle riding one mutate_multi beside a bystander key's. Between a
// store's acknowledgement and the release of its seq only settles aimed at
// older incarnations are in flight, and none of them may touch the acked
// value: the rows run under the key's shard lock, so there is no
// check-then-delete window for the store to fall into.
func TestConditionalOpsNeverDeleteAckedCAS(t *testing.T) {
	bus, model, ring := rpc.NewBus(), vclock.Default(), dht.NewWithMembers(0, "node0/cache")
	bus.Register("node0/cache", memcache.NewServer("node0/cache", memcache.ServerConfig{Model: model, Row: entryRow(4)}).Service())
	writer := memcache.NewClient(rpc.NewCaller(bus, model, "node0"), ring)
	cleaner := memcache.NewClient(rpc.NewCaller(bus, model, "node1"), ring)

	const key, rounds = "/w/contended", 2000
	var released atomic.Uint64 // newest seq the cleaner may settle
	var cleared, deleted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys := []string{"/w/bystander", key}
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := released.Load()
			for _, kind := range []evKind{evClear, evEvict, evClear, evDeleteSeq, evClear, evDeleteSeqRemoved} {
				// The bystander's entry rides the same frame with a seq of
				// its own: it never matches, and must not lend its seq to
				// the contended key's entry either.
				n, _, _, err := cleaner.MutateMulti(0, 2, func(i int) string { return keys[i] }, func(i int, e *wire.Encoder) {
					ev := event{kind: kind, seq: seq}
					if i == 0 {
						ev.seq++
					}
					ev.encodeTo(e)
				})
				if err != nil {
					t.Errorf("mutate_multi: %v", err)
					return
				}
				switch {
				case n == 1 && kind == evClear:
					cleared.Add(1)
				case n == 1:
					deleted.Add(1)
				}
			}
			runtime.Gosched() // single-CPU runs: alternate with the writer
		}
	}()

	// The race is only exercised if released seqs really are settled while
	// the writer keeps going: should the scheduler have starved the cleaner
	// for all of rounds, go on until it has won both ways.
	won := func() bool { return cleared.Load() > 0 && deleted.Load() > 0 }
	req, reply := wire.NewEncoder(0), wire.NewEncoder(0)
	for n := uint64(1); n <= rounds || (!won() && n <= 100*rounds); n++ {
		var out outcome
		for _, kind := range []evKind{evWrite, evCreate} { // a write to a gone key asks for a load
			req.Reset()
			(&event{kind: kind, seq: n, data: []byte("x"), stat: fileStat(0, "")}).encodeTo(req)
			if _, err := writer.Mutate(0, key, req.Bytes(), reply); err != nil {
				t.Fatalf("round %d: %v", n, err)
			}
			if err := decodeAnswer(reply.Bytes(), &out); err != nil {
				t.Fatalf("round %d: %v", n, err)
			}
			if out.verdict == vStore {
				break
			}
		}
		v, present, _, err := readEntry(writer, 0, key)
		switch {
		case out.verdict != vStore:
			t.Fatalf("round %d: the writer's mutate answered %d", n, out.verdict)
		case err != nil || !present:
			t.Fatalf("round %d: acked store deleted by a settle of an older seq: %v", n, err)
		case v.seq != n || !v.dirty || v.removed:
			t.Fatalf("round %d: acked value altered by a settle of an older seq: %+v", n, v)
		}
		released.Store(n)
		runtime.Gosched()
	}
	if !won() {
		t.Fatalf("cleaner never won: cleared=%d deleted=%d", cleared.Load(), deleted.Load())
	}
}
