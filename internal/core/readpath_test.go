package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// TestStatMultiBatchedCutsCacheRPCs: a scan-style StatMulti over cached
// paths must cost one get_multi round trip per owning server rather
// than one get per path, while matching per-key Stat semantics exactly
// (live stats, removed markers read as absence, unknown paths error
// per-result without failing the batch).
func TestStatMultiBatchedCutsCacheRPCs(t *testing.T) {
	e := newEnv(t, 3, nil)
	c := e.client(t, "node0")

	at := vclock.Time(0)
	var err error
	var paths []string
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/w/b%02d", i)
		if at, err = c.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	if at, err = c.Create(at, "/w/gone", 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Remove(at, "/w/gone"); err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "/w/gone", "/w/never")

	rpcs0 := c.CacheRPCs()
	res, at, err := c.StatMulti(at, paths)
	if err != nil {
		t.Fatal(err)
	}
	batched := c.CacheRPCs() - rpcs0

	for i := 0; i < 24; i++ {
		if res[i].Err != nil || res[i].Stat.Type != fsapi.TypeFile {
			t.Fatalf("res[%d] = %+v, %v", i, res[i].Stat, res[i].Err)
		}
	}
	if !errors.Is(res[24].Err, fsapi.ErrNotExist) {
		t.Fatalf("removed path = %v, want ErrNotExist", res[24].Err)
	}
	if !errors.Is(res[25].Err, fsapi.ErrNotExist) {
		t.Fatalf("unknown path = %v, want ErrNotExist", res[25].Err)
	}
	// 26 paths over 3 owners: the batch resolves in at most one
	// get_multi per owner plus the miss warm — far under one RPC per
	// path, and at least the 2x the bench acceptance demands.
	if batched*2 > int64(len(paths)) {
		t.Fatalf("batched StatMulti cost %d cache RPCs for %d paths", batched, len(paths))
	}

	// A loop of single Stat calls — what the scan costs without the
	// batched form — must agree on every result.
	base0 := c.CacheRPCs()
	for i, p := range paths {
		st, done, serr := c.Stat(at, p)
		at = done
		if (res[i].Err == nil) != (serr == nil) || res[i].Stat.Type != st.Type {
			t.Fatalf("batched/per-key disagree at %s: %+v/%v vs %+v/%v",
				p, res[i].Stat, res[i].Err, st, serr)
		}
	}
	perKey := c.CacheRPCs() - base0
	if batched*2 > perKey {
		t.Fatalf("batched = %d RPCs, per-key loop = %d: want >= 2x reduction", batched, perKey)
	}
}

// TestReaddirWarmsColdListing: Readdir over a DFS-resident (uncached)
// directory must warm the distributed cache from its listing, so the
// follow-up stats (the ls -l pattern) never touch the MDS. The warm is a
// StatMulti's read: one get_multi per owner, each owner loading its own
// share of the children, the client's backend reading none. It is visible
// through the cache_warm counter and the readdir_entries histogram in the
// obs registry.
func TestReaddirWarmsColdListing(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 2, nil, func(d *Deps) {
		d.Obs = o
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return &statCounter{Backend: inner(node)} }
	})
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w/cold", 0o777); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := admin.Create(0, fmt.Sprintf("/w/cold/f%02d", i), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	c := e.client(t, "node0")
	owners := map[string]bool{}
	for i := 0; i < n; i++ {
		owners[e.region.Ring().Lookup(fmt.Sprintf("/w/cold/f%02d", i))] = true
	}
	hook := &rpcHook{}
	e.bus.SetObserver(hook)
	ents, at, err := c.Readdir(0, "/w/cold")
	e.bus.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("listing = %d entries, want %d", len(ents), n)
	}
	if got := e.region.Stats().CacheWarms; got != n {
		t.Fatalf("CacheWarms = %d after cold readdir, want %d", got, n)
	}
	if got := hook.count("get_multi"); got != len(owners) {
		t.Fatalf("the warm sent %d get_multi RPCs, want one per owner (%d)", got, len(owners))
	}
	if got := c.backend.(*statCounter).stats.Load(); got != 0 {
		t.Fatalf("the client read %d stats from the DFS itself, want 0: the owners load", got)
	}

	// Every child is now cached: stats must not add MDS lookups.
	lookups := e.dfs.MDS.Stats().Lookups
	for i := 0; i < n; i++ {
		st, done, err := c.Stat(at, fmt.Sprintf("/w/cold/f%02d", i))
		at = done
		if err != nil || st.Type != fsapi.TypeFile {
			t.Fatalf("stat after warm = %+v, %v", st, err)
		}
	}
	if got := e.dfs.MDS.Stats().Lookups; got != lookups {
		t.Fatalf("stats after readdir warm still hit the MDS (%d extra lookups)", got-lookups)
	}

	// Satellite visibility: the listing-size histogram recorded the
	// readdir and the warm counter is exported by name.
	if q := o.HistQuantiles()[obs.HistReaddirEntries]; q.Count != 1 {
		t.Fatalf("readdir_entries histogram count = %d, want 1", q.Count)
	}
	sum := o.Summary()
	if !strings.Contains(sum, "cache_warm") || !strings.Contains(sum, "barrier_scoped") {
		t.Fatalf("metrics summary missing read-path counters:\n%s", sum)
	}
}

// TestParentMemoSweptAcrossEpochs: the positive parent-existence memo
// must not leak one entry per directory forever — the first memo write
// in a new barrier epoch sweeps every stale-epoch entry.
func TestParentMemoSweptAcrossEpochs(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")

	at := vclock.Time(0)
	var err error
	const dirs = 8
	for i := 0; i < dirs; i++ {
		d := fmt.Sprintf("/w/d%d", i)
		if at, err = c.Mkdir(at, d, 0o755); err != nil {
			t.Fatal(err)
		}
		if at, err = c.Create(at, d+"/f", 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.parentMemo) != dirs {
		t.Fatalf("memo holds %d entries, want %d", len(c.parentMemo), dirs)
	}

	// A drain advances the barrier epoch, making every entry stale.
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, "/w/d0/g", 0o644); err != nil {
		t.Fatal(err)
	}
	if len(c.parentMemo) != 1 {
		t.Fatalf("memo holds %d entries after epoch advance, want 1 (stale entries leaked)", len(c.parentMemo))
	}
	for d, ep := range c.parentMemo {
		if ep != c.memoEpoch {
			t.Fatalf("memo entry %q kept stale epoch %d (current %d)", d, ep, c.memoEpoch)
		}
	}
}

// TestStatMultiMergedPeerStaysReadOnly: batched reads through a merged
// peer's cache are strictly read-only (§III.D.4) — hits resolve from
// the peer, misses fall through to the DFS, and the peer's cache holds
// exactly as many items afterwards as before.
func TestStatMultiMergedPeerStaysReadOnly(t *testing.T) {
	e := newEnv(t, 2, nil)
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w2", 0o777); err != nil {
		t.Fatal(err)
	}
	cred2 := fsapi.Cred{UID: 2000, GID: 2000}
	region2, err := NewRegion(RegionConfig{
		Name:      "app2",
		Workspace: "/w2",
		Nodes:     []string{"node8", "node9"},
		Cred:      cred2,
		Perm:      PermSpec{Normal: PermEntry{Mode: 0o755, UID: cred2.UID, GID: cred2.GID}},
		Model:     vclock.Default(),
	}, Deps{
		Bus: e.bus,
		NewBackend: func(node string) Backend {
			return e.dfs.NewClient(node, cred2, 4096, time.Hour)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer region2.Close()

	c2, err := region2.NewClient("node8")
	if err != nil {
		t.Fatal(err)
	}
	at := vclock.Time(0)
	var paths []string
	// Half the paths live (dirty) in the peer's cache...
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/w2/hot%d", i)
		if at, err = c2.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// ...the other half only on the DFS (never read by the peer).
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/w2/cold%d", i)
		if _, err = admin.Create(0, p, 0o666); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	e.region.Merge(region2)
	c1 := e.client(t, "node0")

	items := region2.CacheStats().Items
	res, _, err := c1.StatMulti(at, paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Stat.Type != fsapi.TypeFile {
			t.Fatalf("merged res[%s] = %+v, %v", paths[i], r.Stat, r.Err)
		}
	}
	if got := region2.CacheStats().Items; got != items {
		t.Fatalf("merged StatMulti changed the peer's cache: %d items -> %d", items, got)
	}
	if warmed := e.region.Stats().CacheWarms; warmed != 0 {
		t.Fatalf("merged reads warmed %d entries into a cache", warmed)
	}
}

// TestStatMultiSurvivesCacheServerDeath is the cache-server-death
// schedule: one owner dies between commit and read, its keys fail the
// get_multi, and the DFS answers them instead — every path still
// resolves. (TestStatAndStatMultiAgree pins what the dead owner is and is
// not sent.)
func TestStatMultiSurvivesCacheServerDeath(t *testing.T) {
	e := newEnv(t, 3, nil)
	c := e.client(t, "node0")

	at := vclock.Time(0)
	var err error
	var paths []string
	for i := 0; i < 18; i++ {
		p := fmt.Sprintf("/w/k%02d", i)
		if at, err = c.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Drain first: the cache holds the primary copy until commit, so a
	// server death before the drain would genuinely lose metadata.
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	// Kill node1's cache server: every RPC to it now fails.
	e.bus.Unregister("node1/pacon-app")

	res, _, err := c.StatMulti(at, paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Stat.Type != fsapi.TypeFile {
			t.Fatalf("res[%s] after owner death = %+v, %v", paths[i], r.Stat, r.Err)
		}
	}
	// The dead owner really owned some of the keys, or its answer was
	// never exercised.
	owned := 0
	for _, p := range paths {
		if e.region.Ring().Lookup(p) == "node1/pacon-app" {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("no test key owned by the dead server; its answer is untested")
	}
}

// newPeerRegion starts a second application's region over /w2 (nodes
// node8 and node9) on e's bus and DFS, and merges it into e's region
// (case 2 of §III.B): e's clients read /w2 through the peer's cache.
func newPeerRegion(t *testing.T, e *env) *Region {
	t.Helper()
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w2", 0o777); err != nil {
		t.Fatal(err)
	}
	cred2 := fsapi.Cred{UID: 2000, GID: 2000}
	peer, err := NewRegion(RegionConfig{
		Name:      "app2",
		Workspace: "/w2",
		Nodes:     []string{"node8", "node9"},
		Cred:      cred2,
		Perm:      PermSpec{Normal: PermEntry{Mode: 0o755, UID: cred2.UID, GID: cred2.GID}},
		Model:     vclock.Default(),
	}, Deps{
		Bus: e.bus,
		NewBackend: func(node string) Backend {
			return e.dfs.NewClient(node, cred2, 4096, time.Hour)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	e.region.Merge(peer)
	return peer
}

// TestStatAndStatMultiAgree: a read is one path — lookup, then load —
// whether it is asked for one path or for many, of the client's own
// region, of a merged peer's or of neither. For every state the path can
// be in, Stat(p) and StatMulti([p]) on identical deployments return the
// same stat and the same error class and leave the same cache contents;
// and a path whose cache owner cannot be reached is answered by the DFS,
// stored nowhere, at the price of exactly one cache RPC — the get that
// found the owner dead, with no second get and no add behind it. (The
// client's own count of cache round trips is what is compared: the bus
// shows an observer no call to an address nobody serves.)
func TestStatAndStatMultiAgree(t *testing.T) {
	type place struct {
		name, path string
		// region whose cache holds path, through a client of its own; nil
		// outside any region.
		owner func(t *testing.T, e *env) (*Region, *Client)
	}
	places := []place{
		{"own", "/w/x", func(t *testing.T, e *env) (*Region, *Client) { return e.region, e.client(t, "node1") }},
		{"merged", "/w2/x", func(t *testing.T, e *env) (*Region, *Client) {
			peer := newPeerRegion(t, e)
			c, err := peer.NewClient("node8")
			if err != nil {
				t.Fatal(err)
			}
			return peer, c
		}},
		{"outside", "/other/x", nil},
	}
	// A state puts path in place through w, a client of the region that
	// owns it, or — w nil — on the DFS alone.
	type state struct {
		name    string
		cached  bool // needs a region to hold the path
		wantErr error
		dead    bool
		put     func(t *testing.T, e *env, r *Region, w *Client, p string)
	}
	onDFS := func(dir bool) func(*testing.T, *env, *Region, *Client, string) {
		return func(t *testing.T, e *env, _ *Region, _ *Client, p string) {
			admin := e.dfs.NewClient("admin", rootCred, 0, 0)
			var err error
			if dir {
				_, err = admin.Mkdir(0, p, 0o755)
			} else {
				_, err = admin.Create(0, p, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	committed := func(t *testing.T, _ *env, r *Region, w *Client, p string) {
		at, err := w.Create(0, p, 0o644)
		if err == nil {
			_, err = r.Drain(at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	states := []state{
		{name: "hit", cached: true, put: committed},
		{name: "miss", put: onDFS(false)},
		{name: "directory", put: onDFS(true)},
		{name: "absent", wantErr: fsapi.ErrNotExist, put: func(*testing.T, *env, *Region, *Client, string) {}},
		{name: "removed marker", cached: true, wantErr: fsapi.ErrNotExist,
			put: func(t *testing.T, e *env, r *Region, w *Client, p string) {
				committed(t, e, r, w, p)
				// The DFS keeps the file while the marker says it is gone.
				t.Cleanup(holdCommits(t, r))
				if _, err := w.Remove(0, p); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "owner unregistered", cached: true, dead: true,
			put: func(t *testing.T, e *env, r *Region, w *Client, p string) {
				committed(t, e, r, w, p)
				e.bus.Unregister(r.Ring().Lookup(p))
			}},
	}

	type answer struct {
		stat  fsapi.Stat
		err   error
		cache []CacheEntry
		rpcs  int64
	}
	timeless := func(st fsapi.Stat) fsapi.Stat {
		st.Mtime, st.Ctime = 0, 0 // wall-clock stamps: two deployments differ
		return st
	}
	run := func(t *testing.T, pl place, st state, multi bool) answer {
		e := newEnv(t, 3, nil)
		admin := e.dfs.NewClient("admin", rootCred, 0, 0)
		if _, err := admin.Mkdir(0, "/other", 0o777); err != nil {
			t.Fatal(err)
		}
		regions := []*Region{e.region}
		var r *Region
		var w *Client
		if pl.owner != nil {
			if r, w = pl.owner(t, e); r != e.region {
				regions = append(regions, r)
			}
		}
		st.put(t, e, r, w, pl.path)

		c := e.client(t, "node0")
		var a answer
		rpcs := c.CacheRPCs()
		if multi {
			res, _, err := c.StatMulti(0, []string{pl.path})
			if err != nil {
				t.Fatal(err)
			}
			a.stat, a.err = res[0].Stat, res[0].Err
		} else {
			a.stat, _, a.err = c.Stat(0, pl.path)
		}
		a.rpcs = c.CacheRPCs() - rpcs
		a.stat = timeless(a.stat)
		for _, r := range regions {
			dump, err := r.DumpCache()
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range dump {
				ent.Stat = timeless(ent.Stat)
				a.cache = append(a.cache, ent)
			}
		}
		return a
	}
	classes := []error{fsapi.ErrNotExist, fsapi.ErrClosed, fsapi.ErrPermission, fsapi.ErrNotDir, fsapi.ErrStale}

	for _, pl := range places {
		for _, st := range states {
			if st.cached && pl.owner == nil {
				continue // no cache holds a path outside every region
			}
			t.Run(pl.name+"/"+st.name, func(t *testing.T) {
				one, many := run(t, pl, st, false), run(t, pl, st, true)
				if (one.err == nil) != (many.err == nil) {
					t.Fatalf("Stat: %v, StatMulti: %v", one.err, many.err)
				}
				for _, class := range classes {
					if errors.Is(one.err, class) != errors.Is(many.err, class) {
						t.Fatalf("error classes differ: Stat: %v, StatMulti: %v", one.err, many.err)
					}
				}
				if !errors.Is(one.err, st.wantErr) {
					t.Fatalf("Stat = %v, want %v", one.err, st.wantErr)
				}
				if !reflect.DeepEqual(one.stat, many.stat) {
					t.Fatalf("Stat = %+v, StatMulti = %+v", one.stat, many.stat)
				}
				if wantDir := st.name == "directory"; one.err == nil && one.stat.IsDir() != wantDir {
					t.Fatalf("stat = %+v, want a directory: %v", one.stat, wantDir)
				}
				if !reflect.DeepEqual(one.cache, many.cache) {
					t.Fatalf("cache contents differ:\nafter Stat:      %+v\nafter StatMulti: %+v", one.cache, many.cache)
				}
				if st.dead && (one.rpcs != 1 || many.rpcs != 1) {
					t.Fatalf("cache RPCs with the owner dead: Stat %d, StatMulti %d, want 1 and 1 — the owner that failed a get is asked nothing more", one.rpcs, many.rpcs)
				}
				if stored := pl.name == "own" && (st.name == "miss" || st.name == "directory"); stored {
					// load's add: the one place the two calls write.
					found := false
					for _, ent := range one.cache {
						found = found || (ent.Path == pl.path && !ent.Dirty)
					}
					if !found {
						t.Fatalf("miss not loaded into the cache: %+v", one.cache)
					}
				}
			})
		}
	}
}

// overtaken is a Backend whose stats are overtaken by a dependent
// operation: after each authoritative read returns — between a load's DFS
// read and its add — bump runs with the paths it read.
type overtaken struct {
	Backend
	bump func(paths []string)
}

func (o *overtaken) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	st, done, err := o.Backend.Stat(at, p)
	o.bump([]string{p})
	return st, done, err
}

func (o *overtaken) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	res, done, err := o.Backend.StatBatch(at, paths)
	o.bump(paths)
	return res, done, err
}

// TestOvertakenLoadStoresNothing: a load whose DFS read is overtaken by an
// rmdir or rename — the invalidation generation moves between the owner's
// read and its add — answers its caller and leaves nothing in the cache,
// and it costs no cleanup round trip at all: the owner checks the
// generation under the key's lock and never adds, so there is nothing to
// revoke. For a 16-path StatMulti and for a single Stat alike.
func TestOvertakenLoadStoresNothing(t *testing.T) {
	var e *env
	var armed atomic.Bool
	e = newEnvDeps(t, 4, nil, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &overtaken{Backend: inner(node), bump: func([]string) {
				if armed.Load() {
					e.region.invalGen.Add(1)
				}
			}}
		}
	})
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w/d", 0o777); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 16)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/d/f%02d", i)
		if _, err := admin.Create(0, paths[i], 0o666); err != nil {
			t.Fatal(err)
		}
	}
	c := e.client(t, "node0")
	// The parent directory is cached first, by an undisturbed load.
	if _, _, err := c.Stat(0, "/w/d"); err != nil {
		t.Fatal(err)
	}
	warmed := e.region.Stats().CacheWarms
	armed.Store(true)

	read := func(name string, paths []string, stat func() error) {
		t.Helper()
		hook := &rpcHook{}
		e.bus.SetObserver(hook)
		err := stat()
		e.bus.SetObserver(nil)
		if err != nil {
			t.Fatalf("%s: %v — an overtaken load still answers", name, err)
		}
		for _, p := range paths {
			if ent, ok := findEntry(t, e.region, p); ok {
				t.Fatalf("%s left %+v in the cache: the overtaken load must not add", name, ent)
			}
		}
		if got := hook.count("settle_multi"); got != 0 {
			t.Fatalf("%s sent %d settle_multi RPCs, want 0: nothing was added, so nothing is revoked", name, got)
		}
		if warms := e.region.Stats().CacheWarms - warmed; warms != 0 {
			t.Fatalf("%s: %d unstored loads counted as cache warms", name, warms)
		}
	}
	read("StatMulti", paths, func() error {
		res, _, err := c.StatMulti(0, paths)
		for _, r := range res {
			if err == nil && (r.Err != nil || r.Stat.Type != fsapi.TypeFile) {
				err = fmt.Errorf("result %+v, %v", r.Stat, r.Err)
			}
		}
		return err
	})
	read("Stat", paths[:1], func() error {
		_, _, err := c.Stat(0, paths[0])
		return err
	})
}

// TestLoadOvertakenByARemoveStoresNothing: between a load's DFS read and
// its add, another client removes the file, the remove lands and its
// settle deletes the remove marker. The load answers what it read, but it
// must not add it: the key is empty again and the file is gone, so the
// entry would stand for a file that no longer exists. The commit process
// moves the load token with each settle that deletes a marker, and the
// owner refuses the add. For a StatMulti's misses and a single Stat alike.
func TestLoadOvertakenByARemoveStoresNothing(t *testing.T) {
	var e *env
	var armed atomic.Value // the path the next DFS read's overtaker removes
	e = newEnvDeps(t, 2, nil, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &overtaken{Backend: inner(node), bump: func(read []string) {
				// Each owner reads its own share of a StatMulti's misses:
				// the overtaker waits for the read that names its path.
				p, _ := armed.Load().(string)
				if p == "" || !slices.Contains(read, p) || !armed.CompareAndSwap(p, "") {
					return
				}
				remover := e.client(t, "node1")
				at, err := remover.Remove(0, p)
				if err == nil {
					_, err = e.region.Drain(at)
				}
				if err != nil {
					t.Errorf("overtaking rm of %s: %v", p, err)
				}
			}}
		}
	})
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w/d", 0o777); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/w/d/f0", "/w/d/f1", "/w/d/g"} {
		if _, err := admin.Create(0, p, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	c := e.client(t, "node0")
	check := func(name, gone string, stat func() error) {
		t.Helper()
		armed.Store(gone)
		if err := stat(); err != nil {
			t.Fatalf("%s: %v — an overtaken load still answers", name, err)
		}
		if p, _ := armed.Load().(string); p != "" {
			t.Fatalf("%s: no DFS read was overtaken", name)
		}
		if ent, ok := findEntry(t, e.region, gone); ok {
			t.Fatalf("%s left %+v for the removed %s in the cache", name, ent, gone)
		}
		if _, _, err := c.Stat(0, gone); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("%s: stat of the removed %s after the load: %v, want ErrNotExist", name, gone, err)
		}
	}
	check("StatMulti", "/w/d/f0", func() error {
		res, _, err := c.StatMulti(0, []string{"/w/d/f0", "/w/d/f1"})
		for _, r := range res {
			if err == nil && r.Err != nil {
				err = r.Err
			}
		}
		return err
	})
	check("Stat", "/w/d/g", func() error {
		_, _, err := c.Stat(0, "/w/d/g")
		return err
	})
}

// TestScopedBarrierSkipsSiblingQueues: a Readdir barrier scoped to one
// subtree must not wait for (or drop) pending work in a sibling
// subtree, while still draining everything under its own target; nor
// may a rename, whose scope is the deepest directory holding both its
// paths. A full barrier (Region.Drain) over the same state can only
// finish by dropping the parked sibling op.
func TestScopedBarrierSkipsSiblingQueues(t *testing.T) {
	mutate := func(cfg *RegionConfig) {
		// Parent checks off so a create whose parent never exists parks
		// forever in the commit pipeline; a tiny retry budget keeps the
		// full-drain subtest fast.
		cfg.DisableParentCheck = true
		cfg.CommitRetryLimit = 2
	}
	// parked queues /w/a/x on node0 and parks an orphan on node1: /w/b
	// never exists, so its commit can only retry.
	parked := func(t *testing.T) (*env, *Client, vclock.Time) {
		e := newEnv(t, 2, mutate)
		c := e.client(t, "node0")
		at, err := c.Mkdir(0, "/w/a", 0o755)
		if err != nil {
			t.Fatal(err)
		}
		if at, err = c.Create(at, "/w/a/x", 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := e.client(t, "node1").Create(at, "/w/b/orphan", 0o644); err != nil {
			t.Fatal(err)
		}
		return e, c, at
	}
	// untouched checks that the sibling op is still parked, not dropped.
	untouched := func(t *testing.T, e *env) {
		t.Helper()
		if st := e.region.Stats(); st.Dropped != 0 {
			t.Fatalf("scoped barrier dropped %d sibling ops", st.Dropped)
		}
		if !e.region.byName["node1"].inflight.hasUnder("/w/b") {
			t.Fatal("sibling op no longer pending: the barrier drained it")
		}
	}

	t.Run("scoped", func(t *testing.T) {
		e, c, at := parked(t)
		ents, _, err := c.Readdir(at, "/w/a")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name != "x" {
			t.Fatalf("scoped readdir = %v, want [x]", ents)
		}
		if st := e.region.Stats(); st.BarriersScoped == 0 {
			t.Fatalf("no scoped barrier recorded: %+v", st)
		}
		untouched(t, e)
	})

	t.Run("rename", func(t *testing.T) {
		e, c, at := parked(t)
		before := e.region.Stats()
		at, err := c.Rename(at, "/w/a/x", "/w/a/y")
		if err != nil {
			t.Fatal(err)
		}
		st := e.region.Stats()
		if st.BarriersScoped != before.BarriersScoped+1 || st.BarriersFull != before.BarriersFull {
			t.Fatalf("rename ran %d scoped and %d full barriers, want 1 and 0",
				st.BarriersScoped-before.BarriersScoped, st.BarriersFull-before.BarriersFull)
		}
		untouched(t, e)
		if !e.dfs.MDS.Tree().Exists("/w/a/y") || e.dfs.MDS.Tree().Exists("/w/a/x") {
			t.Fatal("the DFS does not show the move")
		}
		if _, _, err := c.Stat(at, "/w/a/x"); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("stat of the old name: %v, want ErrNotExist", err)
		}
	})

	t.Run("full-drain", func(t *testing.T) {
		e := newEnv(t, 2, mutate)
		c := e.client(t, "node0")
		at, err := c.Mkdir(0, "/w/a", 0o755)
		if err != nil {
			t.Fatal(err)
		}
		c1 := e.client(t, "node1")
		if _, err := c1.Create(at, "/w/b/orphan", 0o644); err != nil {
			t.Fatal(err)
		}

		if _, err := e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		st := e.region.Stats()
		if st.BarriersScoped != 0 {
			t.Fatalf("Drain scoped its barrier: %+v", st)
		}
		if st.BarriersFull == 0 {
			t.Fatalf("no full barrier recorded: %+v", st)
		}
		// The full drain could only complete by exhausting the orphan's
		// retry budget.
		if st.Dropped == 0 {
			t.Fatalf("full barrier finished without draining the sibling queue: %+v", st)
		}
	})
}

// TestRenameIntoQueuedMkdir: the destination's parent is a mkdir still
// queued on another node — held in its commit process's apply — when
// the rename begins. That node holds an op under the rename's scope, so
// the rename's barrier must wait for it: the gate opens only once the
// marker is in that node's queue, and the move then finds its parent on
// the DFS. A scope that left out dst's parent would skip the node and
// fail the move with ErrNotExist.
func TestRenameIntoQueuedMkdir(t *testing.T) {
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	e := newEnvDeps(t, 2, nil, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			if node == "node1" {
				return &gatedBackend{Backend: inner(node), gate: gate}
			}
			return inner(node)
		}
	})
	t.Cleanup(open)
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/a", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, "/w/a/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err = e.client(t, "node1").Mkdir(at, "/w/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// The mkdir has left node1's queue: its commit process holds it in
	// the gated apply.
	q := e.region.byName["node1"].queue
	eventually(t, "node1 dequeues the mkdir", func() bool { return q.Len() == 0 })
	done := make(chan error, 1)
	go func() {
		_, err := c.Rename(at, "/w/a/f", "/w/d/f")
		done <- err
	}()
	for q.Len() == 0 { // until the rename's marker is in node1's queue
		select {
		case err := <-done:
			t.Fatalf("rename returned before node1 committed the mkdir of its destination's parent: %v", err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("%d ops dropped", st.Dropped)
	}
	if !e.dfs.MDS.Tree().Exists("/w/d/f") || e.dfs.MDS.Tree().Exists("/w/a/f") {
		t.Fatal("the DFS does not show the move")
	}
}

// TestRenameWaitsForAnOwedSettle: an rm of the rename's destination has
// landed on node1, but node1's commit process has not yet deleted its
// remove marker from the cache. It is held inside that settle_multi, after
// the owner of an earlier key in the same batch and before the marker's.
// node1 then holds no op under the rename's scope, but it still owes the
// destination a settle, so the rename must wait for it: a rename that
// skipped node1 would move the file onto a name whose stale marker then
// hides it (ErrNotExist).
func TestRenameWaitsForAnOwedSettle(t *testing.T) {
	e := newEnv(t, 2, nil)
	c0, c1 := e.client(t, "node0"), e.client(t, "node1")
	// dst's owner is the ring's second member and other's its first, so a
	// settle batch holding both reaches other's owner first.
	ring := e.region.Ring()
	members := ring.Members()
	pick := func(format string, owner string) string {
		for i := 0; ; i++ {
			if p := fmt.Sprintf(format, i); ring.Lookup(p) == owner {
				return p
			}
		}
	}
	dst, other := pick("/w/a/dst%d", members[1]), pick("/w/b/other%d", members[0])
	var at vclock.Time
	var err error
	for _, d := range []string{"/w/a", "/w/b"} {
		if at, err = c0.Mkdir(at, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/w/a/src", dst} {
		if at, err = c0.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	// node1's commit process takes the rm and the create in one wave.
	release := holdCommits(t, e.region)
	if at, err = c1.Remove(at, dst); err != nil {
		t.Fatal(err)
	}
	if at, err = c1.Create(at, other, 0o644); err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	held, unhold := make(chan struct{}), make(chan struct{})
	hook := &rpcHook{fn: func(method string) {
		if method == "settle_multi" && armed.CompareAndSwap(true, false) {
			close(held)
			<-unhold
		}
	}}
	e.bus.SetObserver(hook)
	defer e.bus.SetObserver(nil)
	armed.Store(true)
	release()
	<-held
	unholdOnce := sync.OnceFunc(func() { close(unhold) })
	t.Cleanup(unholdOnce)

	q := e.region.byName["node1"].queue
	done := make(chan error, 1)
	go func() {
		_, err := c0.Rename(at, "/w/a/src", dst)
		done <- err
	}()
	for q.Len() == 0 { // until the rename's marker is in node1's queue
		select {
		case err := <-done:
			t.Fatalf("rename returned while node1 still owed %s its settle: %v", dst, err)
		case <-time.After(100 * time.Microsecond):
		}
	}
	unholdOnce()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, err := c0.Stat(at, dst); err != nil {
		t.Fatalf("stat of the renamed file: %v", err)
	}
}

// TestInWorkspaceRejectsLookalikes is the path property of the read path's
// routing (ROADMAP item 14a): after Clean, a path belongs to the region
// (inWorkspace) or to a merged peer (mergedFor) exactly when its leading
// components are that workspace's, compared component by component — so a
// prefix sibling (/w2 beside /w, /w.x, /w followed by NUL) is never taken
// for the workspace, and doubled slashes, dot segments, NUL bytes and
// overlong names change nothing. ".." is a literal name to Clean and to the
// DFS alike (namespace.Clean), so /w/../x is a child of /w on both sides
// and escapes nothing. A Stat of each input is served by the region that
// owns it: its cache servers count the get, and no other region's do.
func TestInWorkspaceRejectsLookalikes(t *testing.T) {
	e := newEnv(t, 2, nil)
	peer := newPeerRegion(t, e) // /w2
	c := e.client(t, "node0")

	// components is the reference: p's segments, empty and "." dropped.
	components := func(p string) []string {
		var out []string
		for _, seg := range strings.Split(p, "/") {
			if seg != "" && seg != "." {
				out = append(out, seg)
			}
		}
		return out
	}
	under := func(p, root string) bool {
		pc, rc := components(p), components(root)
		return len(pc) >= len(rc) && reflect.DeepEqual(pc[:len(rc)], rc)
	}
	long := strings.Repeat("x", 300)
	segs := []string{"w", "w2", "w.x", "w\x00", "\x00", "..", ".", "", "a", "w ", long}
	inputs := []string{"/w", "/w2", "/w2/a", "/w/../w2", "//w//a//", "/./w/./a", "w/a", "/w\x00/a", "/w/\x00",
		"/w.", "/w/.", "/w2/..", "/w" + long, "/w/" + long + "/" + long, "/..", "/../w/a", ""}
	rnd := rand.New(rand.NewSource(14))
	for len(inputs) < 2000 {
		var b strings.Builder
		if rnd.Intn(4) > 0 {
			b.WriteByte('/')
		}
		for n := 1 + rnd.Intn(4); n > 0; n-- {
			b.WriteString(segs[rnd.Intn(len(segs))])
			b.WriteString([]string{"/", "//", "/./"}[rnd.Intn(3)])
		}
		inputs = append(inputs, strings.TrimSuffix(b.String(), "/")+[]string{"", "/"}[rnd.Intn(2)])
	}

	served := func(r *Region) int64 { s := r.CacheStats(); return s.Hits + s.Misses }
	var classes [3]int // own, peer, neither
	for i, in := range inputs {
		p := namespace.Clean(in)
		own, inPeer := under(p, "/w"), under(p, "/w2")
		switch {
		case own:
			classes[0]++
		case inPeer:
			classes[1]++
		default:
			classes[2]++
		}
		m, merged := e.region.mergedFor(p)
		if got := c.inWorkspace(p); got != own {
			t.Fatalf("inWorkspace(Clean(%q) = %q) = %v, want %v", in, p, got, own)
		}
		if merged != inPeer || merged && m.workspace != "/w2" {
			t.Fatalf("mergedFor(Clean(%q) = %q) = %v %q, want %v", in, p, merged, m.workspace, inPeer)
		}
		if i%10 != 0 && i >= 17 {
			continue // the routing below is end to end: every tenth input, and every listed one
		}
		ownBefore, peerBefore := served(e.region), served(peer)
		c.Stat(0, in) // any answer: what is checked is who was asked
		if asked := served(e.region) > ownBefore; asked != own {
			t.Fatalf("Stat(%q): the region's cache asked: %v, want %v", in, asked, own)
		}
		if asked := served(peer) > peerBefore; asked != inPeer {
			t.Fatalf("Stat(%q): the peer's cache asked: %v, want %v", in, asked, inPeer)
		}
	}
	if classes[0] < 100 || classes[1] < 100 || classes[2] < 100 {
		t.Fatalf("inputs per class (own, peer, neither) = %v: too few of one to say anything", classes)
	}
}
