package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// TestAtRiskBoundOneAppliesBeforeReturn is the abl-async ablation: at
// AtRiskBound 1 every ack waits for its own op's commit, through the one
// commit path, so a create, a mkdir and an rm are each on the DFS when the
// call returns and nothing is left queued — and that is slower than the
// asynchronous commit, in virtual time.
func TestAtRiskBoundOneAppliesBeforeReturn(t *testing.T) {
	e := newEnv(t, 2, func(cfg *RegionConfig) { cfg.AtRiskBound = 1 })
	c := e.client(t, "node0")
	tree := e.dfs.MDS.Tree()
	onDFS := func(op string, ok bool) {
		t.Helper()
		if !ok || e.region.QueueDepth() != 0 {
			t.Fatalf("%s at return: on the DFS %v, queue depth %d", op, ok, e.region.QueueDepth())
		}
	}
	at, err := c.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	onDFS("create", tree.Exists("/w/f"))
	if at, err = c.Mkdir(at, "/w/d", 0o755); err != nil {
		t.Fatal(err)
	}
	onDFS("mkdir", tree.Exists("/w/d"))
	// Duplicate detection still via the cache.
	if _, err := c.Create(at, "/w/f", 0o644); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("dup create = %v", err)
	}
	if at, err = c.Remove(at, "/w/f"); err != nil {
		t.Fatal(err)
	}
	onDFS("rm", !tree.Exists("/w/f"))
	// And it is slower than async, in virtual time.
	async := newEnv(t, 2, nil)
	ca := async.client(t, "node0")
	var asyncT, syncT vclock.Time
	for i := 0; i < 50; i++ {
		asyncT, err = ca.Create(asyncT, fmt.Sprintf("/w/a%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		syncT, err = c.Create(syncT, fmt.Sprintf("/w/s%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if asyncT*2 >= syncT {
		t.Fatalf("async (%v) should be far faster than sync (%v)", asyncT, syncT)
	}
}

// TestAtRiskBoundOneInlineData: an inline write's ack at AtRiskBound 1
// waits for its backup write, bytes and size, to reach the DFS.
func TestAtRiskBoundOneInlineData(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.AtRiskBound = 1 })
	c := e.client(t, "node0")
	at, _ := c.Create(0, "/w/f", 0o644)
	at, err := c.WriteAt(at, "/w/f", 0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if size, data := dfsFile(t, e, at, "/w/f"); size != 5 || data != "hello" || e.region.QueueDepth() != 0 {
		t.Fatalf("write at return: DFS holds %d bytes %q, queue depth %d", size, data, e.region.QueueDepth())
	}
	got, _, err := c.ReadAt(at, "/w/f", 0, 10)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestHierarchicalPermCheckSemantics(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) {
		cfg.HierarchicalPermCheck = true
		// Batch spec still applies at the end of the walk.
		cfg.Perm = PermSpec{Normal: PermEntry{Mode: 0o700, UID: appCred.UID, GID: appCred.GID}}
	})
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/open", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, "/w/open/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = c.Stat(at, "/w/open/f"); err != nil {
		t.Fatal(err)
	}

	// A locked directory on the path denies traversal.
	at, err = c.Mkdir(at, "/w/locked", 0o000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(at, "/w/locked/f", 0o644); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("create under exec-less dir = %v", err)
	}
	if _, _, err := c.Stat(at, "/w/locked/f"); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("stat under exec-less dir = %v", err)
	}
}

func TestHierarchicalCheckCostsMoreWithDepth(t *testing.T) {
	run := func(hier bool) vclock.Duration {
		e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.HierarchicalPermCheck = hier })
		c := e.client(t, "node0")
		// Build a deep chain, then time stats at the leaf.
		p := "/w"
		at := vclock.Time(0)
		var err error
		for i := 0; i < 5; i++ {
			p += fmt.Sprintf("/l%d", i)
			if at, err = c.Mkdir(at, p, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		start := at
		for i := 0; i < 50; i++ {
			if _, at, err = c.Stat(at, p); err != nil {
				t.Fatal(err)
			}
		}
		return at.Sub(start)
	}
	batch, hier := run(false), run(true)
	if hier <= batch {
		t.Fatalf("hierarchical (%v) must cost more than batch (%v)", hier, batch)
	}
}

func TestMergedRegionInlineRead(t *testing.T) {
	e := newEnv(t, 2, nil)
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	admin.Mkdir(0, "/w2", 0o777)
	cred2 := fsapi.Cred{UID: 2, GID: 2}
	r2, err := NewRegion(RegionConfig{
		Name: "peer", Workspace: "/w2", Nodes: []string{"node7"},
		Cred:  cred2,
		Perm:  PermSpec{Normal: PermEntry{Mode: 0o755, UID: cred2.UID, GID: cred2.GID}},
		Model: vclock.Default(),
	}, Deps{Bus: e.bus, NewBackend: func(node string) Backend {
		return e.dfs.NewClient(node, cred2, 4096, time.Hour)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	c2, _ := r2.NewClient("node7")
	at, _ := c2.Create(0, "/w2/data", 0o644)
	at, err = c2.WriteAt(at, "/w2/data", 0, []byte("shared-bytes"))
	if err != nil {
		t.Fatal(err)
	}

	e.region.Merge(r2)
	c1 := e.client(t, "node0")
	// Inline content is readable through the peer's cache before any
	// commit reaches the DFS.
	got, at, err := c1.ReadAt(at, "/w2/data", 0, 64)
	if err != nil || string(got) != "shared-bytes" {
		t.Fatalf("merged inline read = %q, %v", got, err)
	}
	// Writes remain rejected.
	if _, err := c1.WriteAt(at, "/w2/data", 0, []byte("x")); !errors.Is(err, fsapi.ErrReadOnly) {
		t.Fatalf("merged write = %v", err)
	}
	// Missing paths in the peer region fall back to the DFS and report
	// ErrNotExist.
	if _, _, err := c1.Stat(at, "/w2/ghost"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("merged miss = %v", err)
	}
}

func TestRetryLimitDropsOrphans(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) {
		cfg.DisableParentCheck = true
		cfg.CommitRetryLimit = 4
	})
	c := e.client(t, "node0")
	// A child whose parent never arrives: the commit module must give up
	// after the budget and count the drop, not spin forever.
	at, err := c.Create(0, "/w/never/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	st := e.region.Stats()
	if st.Dropped == 0 {
		t.Fatalf("orphan op must be dropped after the retry budget: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatal("resubmissions must be counted")
	}
}

// TestStalledDrainWaitsForABusySibling: a drain finds a child create
// parked on node0 while its parent's mkdir is in node1's wave, which the
// DFS holds for 50 ms. node1's commit process can still move, so node0's
// stalled passes wait for it and charge nothing: the child lands once the
// mkdir does, within a budget of four passes.
func TestStalledDrainWaitsForABusySibling(t *testing.T) {
	e, h := holdWaveEnv(t, 2, "/w/d", func(cfg *RegionConfig) {
		cfg.DisableParentCheck = true
		cfg.CommitRetryLimit = 4
	})
	at, err := e.client(t, "node0").Create(0, "/w/d/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the create to park", func() bool { return e.region.parkedOps() == 1 })
	if at, err = e.client(t, "node1").Mkdir(at, "/w/d", 0o755); err != nil {
		t.Fatal(err)
	}
	<-h.held
	drained := make(chan error, 1)
	go func() {
		_, err := e.region.Drain(at)
		drained <- err
	}()
	// Wall time in which passes charged by the clock, one a millisecond,
	// would spend the budget of four many times over.
	time.Sleep(50 * time.Millisecond)
	h.release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("stats = %+v, want nothing dropped", st)
	}
	if !e.dfs.MDS.Tree().Exists("/w/d/f") {
		t.Fatal("the child never reached the DFS")
	}
}

func TestRegionAccessors(t *testing.T) {
	e := newEnv(t, 2, nil)
	cfg := e.region.cfg
	if cfg.Workspace != "/w" || cfg.SmallFileThreshold != 4096 {
		t.Fatalf("config = %+v", cfg)
	}
	if len(e.region.ring.Members()) != 2 {
		t.Fatalf("ring size = %d", len(e.region.ring.Members()))
	}
	c := e.client(t, "node0")
	if c.Region() != e.region {
		t.Fatal("Region accessor wrong")
	}
	// Pace must not panic and must propagate to the backend.
	pacer := vclock.NewPacer(1, 0)
	c.Pace(pacer, 0)
	if _, err := c.Create(0, "/w/paced", 0o644); err != nil {
		t.Fatal(err)
	}
	pacer.Done(0)
}

func TestOpKindStrings(t *testing.T) {
	cases := map[OpKind]string{
		OpCreate:   "create",
		OpMkdir:    "mkdir",
		OpRemove:   "rm",
		OpSetStat:  "setstat",
		OpKind(99): "opkind(99)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestEvictionWalksNestedDirs(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.CacheCapacityBytes = 12 << 10 })
	c := e.client(t, "node0")
	at := vclock.Time(0)
	var err error
	// Nested structure so evictSubtree recursion gets exercised.
	for d := 0; d < 6; d++ {
		if at, err = c.Mkdir(at, fmt.Sprintf("/w/d%d", d), 0o755); err != nil {
			t.Fatal(err)
		}
		if at, err = c.Mkdir(at, fmt.Sprintf("/w/d%d/sub", d), 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if at, err = c.Create(at, fmt.Sprintf("/w/d%d/sub/f%d", d, i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
	}
	// Push past capacity to force eviction rounds over the nested tree.
	for i := 0; i < 150; i++ {
		if at, err = c.Create(at, fmt.Sprintf("/w/x%03d", i), 0o644); err != nil {
			t.Fatalf("create under pressure: %v", err)
		}
		if i%25 == 24 {
			if at, err = e.region.Drain(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.region.Stats().Evictions < 2 {
		t.Fatalf("expected multiple eviction rounds, got %+v", e.region.Stats())
	}
	// Evicted nested entries reload on demand.
	if _, _, err := c.Stat(at, "/w/d3/sub/f5"); err != nil {
		t.Fatal(err)
	}
}

// Remove of a file that was evicted from a full cache must make room for
// its removed marker the way insert does, not surface ErrOutOfSpace.
func TestRemoveEvictsWhenCacheFull(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.CacheCapacityBytes = 8 << 10 })
	c := e.client(t, "node0")
	// "/w/a" sorts first, so the first eviction round picks it.
	at, err := c.Create(0, "/w/a", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cache with clean entries until one create has to evict:
	// that round drops "/w/a" and the new (longer-keyed) entry takes its
	// room, leaving less free space than the marker for "/w/a" needs.
	for i := 0; e.region.Stats().Evictions == 0; i++ {
		if i == 1000 {
			t.Fatal("cache never filled")
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if at, err = c.Create(at, fmt.Sprintf("/w/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Remove(at, "/w/a"); err != nil {
		t.Fatalf("remove on a full cache: %v", err)
	}
	if got := e.region.Stats().Evictions; got != 2 {
		t.Fatalf("evictions = %d, want 2 (one by the fill, one by Remove)", got)
	}
	if _, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if e.dfs.MDS.Tree().Exists("/w/a") {
		t.Fatal("remove never reached the DFS")
	}
}

func TestRenameExtension(t *testing.T) {
	e := newEnv(t, 2, nil)
	c := e.client(t, "node0")
	at, _ := c.Mkdir(0, "/w/old", 0o755)
	at, _ = c.Create(at, "/w/old/f1", 0o644)
	at, _ = c.WriteAt(at, "/w/old/f1", 0, []byte("contents"))
	at, _ = c.Create(at, "/w/old/f2", 0o644)

	at, err := c.Rename(at, "/w/old", "/w/new")
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous (dependent op): the DFS already reflects the move.
	if e.dfs.MDS.Tree().Exists("/w/old") || !e.dfs.MDS.Tree().Exists("/w/new/f1") {
		t.Fatal("rename not applied to the DFS at return")
	}
	// Old paths invisible, new paths resolve with data intact.
	if _, _, err := c.Stat(at, "/w/old/f1"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old path still visible: %v", err)
	}
	data, at, err := c.ReadAt(at, "/w/new/f1", 0, 64)
	if err != nil || string(data) != "contents" {
		t.Fatalf("read after rename = %q, %v", data, err)
	}
	// Renaming over an existing name fails.
	at, _ = c.Mkdir(at, "/w/other", 0o755)
	if _, err := c.Rename(at, "/w/other", "/w/new"); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("rename onto existing = %v", err)
	}
	// Workspace root cannot be moved; cross-boundary moves rejected.
	if _, err := c.Rename(at, "/w", "/elsewhere"); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("rename workspace root = %v", err)
	}
	if _, err := c.Rename(at, "/w/new", "/outside"); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("cross-boundary rename = %v", err)
	}
}

func TestRenameFileKeepsPendingWorkCorrect(t *testing.T) {
	e := newEnv(t, 2, nil)
	a := e.client(t, "node0")
	b := e.client(t, "node1")
	// Async creates from both nodes, then a rename: the barrier must
	// drain both queues first so nothing lands under the old name after
	// the move.
	at, _ := a.Mkdir(0, "/w/dir", 0o755)
	for i := 0; i < 10; i++ {
		at, _ = a.Create(at, fmt.Sprintf("/w/dir/a%d", i), 0o644)
		at, _ = b.Create(at, fmt.Sprintf("/w/dir/b%d", i), 0o644)
	}
	at, err := b.Rename(at, "/w/dir", "/w/moved")
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := a.Readdir(at, "/w/moved")
	if err != nil || len(ents) != 20 {
		t.Fatalf("moved dir has %d entries, %v", len(ents), err)
	}
	if e.region.Stats().Dropped != 0 {
		t.Fatalf("drops: %+v", e.region.Stats())
	}
}

// TestCacheFootprintClaim pins the paper's §III.F arithmetic: "a 500MB
// distributed cache space can store more than 10 million metadata
// without inline data... about 0.05% of the memory space if the
// application runs on 16 nodes". Our per-entry accounting is heavier
// than the paper's (full wire-encoded stat + memcached bookkeeping), so
// we assert the same order of magnitude — millions of entries in 500 MB
// — and the exact 0.05% node-memory fraction.
func TestCacheFootprintClaim(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/run042", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		// Typical HPC output path length.
		at, err = c.Create(at, fmt.Sprintf("/w/run042/rank%04d.out", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	used := e.region.CacheStats().UsedBytes
	perEntry := float64(used) / float64(n+2)
	entriesPer500MB := 500 * 1024 * 1024 / perEntry
	if entriesPer500MB < 2_000_000 {
		t.Fatalf("only %.0f entries fit in 500MB (%.0fB each) — an order below the paper's claim", entriesPer500MB, perEntry)
	}
	// 500 MB spread over 16 nodes with 64 GB each (the paper's testbed):
	// 500MB / (16 × 64GB) ≈ 0.05%.
	fraction := 500.0 / (16 * 64 * 1024)
	if fraction > 0.0006 || fraction < 0.0004 {
		t.Fatalf("memory fraction %.5f does not match the paper's ~0.05%%", fraction)
	}
	t.Logf("per-entry %.0fB → %.1fM entries per 500MB; node-memory fraction %.3f%%",
		perEntry, entriesPer500MB/1e6, 100*fraction)
}

// TestRegionConfigKeepsNoPredecessorSwitches guards the one-path rule:
// an optimisation replaces its predecessor instead of shipping next to
// it behind a bool. The paper's own ablations (HierarchicalPermCheck,
// DisableParentCheck; asynchronous commit is AtRiskBound's value, not a
// switch) reproduce published figures and are the only mode switches
// RegionConfig carries; a new
// Disable*/Legacy*/ClientSide* field means an old implementation is
// being kept alive to be compared against — record its numbers in
// EXPERIMENTS.md and delete it instead.
func TestRegionConfigKeepsNoPredecessorSwitches(t *testing.T) {
	allowed := map[string]bool{"DisableParentCheck": true} // §III.C
	rt := reflect.TypeOf(RegionConfig{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Bool || allowed[f.Name] {
			continue
		}
		for _, prefix := range []string{"Disable", "Legacy", "ClientSide"} {
			if strings.HasPrefix(f.Name, prefix) {
				t.Errorf("RegionConfig.%s: bool switch that keeps a predecessor path selectable", f.Name)
			}
		}
	}
}

// An inline WriteAt that grows a cached value past the node's budget
// must make room the way insert does, not surface ErrOutOfSpace to the
// application.
func TestWriteAtEvictsWhenCacheFull(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.CacheCapacityBytes = 8 << 10 })
	c := e.client(t, "node0")
	// Fill the cache with clean entries until one create has to evict;
	// a round frees one top-level file, so what is left is far less
	// than the write below needs.
	at, last := vclock.Time(0), ""
	var err error
	for i := 0; e.region.Stats().Evictions == 0; i++ {
		if i == 1000 {
			t.Fatal("cache never filled")
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		last = fmt.Sprintf("/w/f%03d", i)
		if at, err = c.Create(at, last, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	before := e.region.Stats()
	data := bytes.Repeat([]byte("x"), 2048)
	if at, err = c.WriteAt(at, last, 0, data); err != nil {
		t.Fatalf("inline write on a full cache: %v", err)
	}
	after := e.region.Stats()
	if after.Evictions == before.Evictions || after.EvictedKeys == before.EvictedKeys {
		t.Fatalf("write fit without evicting: before %+v after %+v", before, after)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ReadAt(at, last, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
	if st, err := e.dfs.MDS.Tree().Lookup(last); err != nil || st.Size != int64(len(data)) {
		t.Fatalf("DFS backup = %+v, %v", st, err)
	}
}
