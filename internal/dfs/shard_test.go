package dfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// shardedCluster deploys a sharded cluster with /w as the spread root
// and returns it alongside an app client.
func shardedCluster(t *testing.T, shards int) (*Cluster, *Client) {
	t.Helper()
	c := NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "storage0", shards, []string{"/w"}, []string{"storage1"})
	root := c.NewClient("node0", rootCred, 0, 0)
	if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	return c, c.NewClient("node0", appCred, 0, 0)
}

// nameOwnedBy returns a fresh /w child path whose subtree hashes to
// shard k.
func nameOwnedBy(t *testing.T, sm *ShardMap, k int, tag string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		p := fmt.Sprintf("/w/%s%d", tag, i)
		if sm.Owner(p) == k {
			return p
		}
	}
	t.Fatalf("no /w child hashing to shard %d", k)
	return ""
}

func allIntentsDrained(t *testing.T, c *Cluster) {
	t.Helper()
	for i, m := range c.MDSes {
		if n := m.intentN.Load(); n != 0 {
			t.Fatalf("shard %d holds %d intents after the protocol finished", i, n)
		}
	}
}

// wantRoute is the shard map's definition written out a second way: -1
// for "/", a spread root or an ancestor of one; otherwise FNV-32a, mod n,
// of the path's first component below its deepest structural ancestor.
// roots are clean. ".." and NUL are names like any other, as they are to
// namespace.Clean and the MDS tree.
func wantRoute(n int, roots []string, p string) int {
	structural := func(q string) bool {
		if q == "/" {
			return true
		}
		for _, r := range roots {
			if r == q || strings.HasPrefix(r, q+"/") {
				return true
			}
		}
		return false
	}
	if structural(p) {
		return -1
	}
	unit := p
	for {
		parent, _ := namespace.Split(unit)
		if structural(parent) {
			break
		}
		unit = parent
	}
	h := fnv.New32a()
	h.Write([]byte(unit))
	return int(h.Sum32() % uint32(n))
}

// checkRoute holds a shard map to wantRoute on the clean path p, and to
// twin: a map built from the same shards and the same roots spelled
// otherwise must answer alike.
func checkRoute(t *testing.T, sm, twin *ShardMap, roots []string, p string) {
	t.Helper()
	want := wantRoute(sm.N(), roots, p)
	if got := sm.route(p); got != want {
		t.Fatalf("route(%q) with spread roots %q = %d, want %d", p, roots, got, want)
	}
	if got := twin.route(p); got != want {
		t.Fatalf("route(%q) on a map of the same roots spelled otherwise = %d, want %d", p, got, want)
	}
	if sm.structural(p) != (want < 0) {
		t.Fatalf("structural(%q) = %v, want %v", p, sm.structural(p), want < 0)
	}
}

// TestShardMapPartition checks every path of up to three components
// over an alphabet of prefix siblings (/w beside /w2), names shared by a
// nested spread root's ancestors, "..", NUL and a 300-byte name, on
// three and four shards, against wantRoute; and then the two properties
// the definition implies: a hash-zone path shares its parent's shard
// (parent affinity), and the children of a structural directory spread —
// an ancestor of a spread root included.
func TestShardMapPartition(t *testing.T) {
	roots := []string{"/w", "/a/b/c"}
	names := []string{"w", "w2", "a", "b", "c", "x", "..", "\x00", strings.Repeat("n", 300)}
	paths, level := []string{"/"}, []string{"/"}
	for depth := 0; depth < 3; depth++ {
		var next []string
		for _, q := range level {
			for _, n := range names {
				next = append(next, namespace.Join(q, n))
			}
		}
		paths, level = append(paths, next...), next
	}
	for _, n := range []int{3, 4} {
		addrs := []string{"s0", "s1", "s2", "s3"}[:n]
		sm := NewShardMap(addrs, roots)
		twin := NewShardMap(addrs, []string{"//a/b/c/", "/w/", "/w", "/"})
		for _, p := range paths {
			checkRoute(t, sm, twin, roots, p)
			if parent, _ := namespace.Split(p); !sm.structural(p) && !sm.structural(parent) && sm.route(p) != sm.route(parent) {
				t.Fatalf("%d shards: %q on shard %d, its parent on %d", n, p, sm.route(p), sm.route(parent))
			}
		}
		for _, dir := range []string{"/", "/w", "/a/b"} {
			owners := map[int]bool{}
			for i := 0; i < 64; i++ {
				owners[sm.Owner(namespace.Join(dir, fmt.Sprintf("s%d", i)))] = true
			}
			if len(owners) < 2 {
				t.Fatalf("%d shards: 64 children of structural %s all on shard %v", n, dir, owners)
			}
		}
		if a := testing.AllocsPerRun(100, func() { sm.route("/a/b/x/y/z") }); a != 0 {
			t.Fatalf("route allocates %.0f times per call", a)
		}
	}
}

// FuzzShardMap checks the shard map against its definition on any one
// spread root and any path, cleaned as every client cleans it first.
func FuzzShardMap(f *testing.F) {
	for _, seed := range [][2]string{
		{"/w", "/w2/x"},
		{"/a/b/c", "/a/b/x/y"},
		{"/w", "/w/../x"},
		{"w/", "//w//x\x00/"},
		{"", "/"},
	} {
		f.Add(seed[0], seed[1])
	}
	addrs := []string{"s0", "s1", "s2", "s3"}
	f.Fuzz(func(t *testing.T, root, p string) {
		sm := NewShardMap(addrs, []string{root})
		twin := NewShardMap(addrs, []string{root + "/", "/" + root, root})
		var roots []string
		if r := namespace.Clean(root); r != "/" {
			roots = append(roots, r)
		}
		checkRoute(t, sm, twin, roots, namespace.Clean(p))
	})
}

// TestShardedCreateSpreadAndReaddir: files under the spread root land on
// their owner shard only; a structural readdir merges every shard's
// listing back into one namespace view.
func TestShardedCreateSpreadAndReaddir(t *testing.T) {
	c, cl := shardedCluster(t, 4)

	// The structural root must be mirrored everywhere.
	for i, m := range c.MDSes {
		if !m.Tree().Exists("/w") {
			t.Fatalf("shard %d missing the mirrored /w", i)
		}
	}

	const n = 32
	for i := 0; i < n; i++ {
		if _, err := cl.Create(0, fmt.Sprintf("/w/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/w/f%d", i)
		owner := c.Shards.Owner(p)
		for s, m := range c.MDSes {
			if got := m.Tree().Exists(p); got != (s == owner) {
				t.Fatalf("%s on shard %d: exists=%v, owner=%d", p, s, got, owner)
			}
		}
		if _, _, err := cl.Stat(0, p); err != nil {
			t.Fatalf("stat %s through the router: %v", p, err)
		}
	}

	ents, _, err := cl.Readdir(0, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("merged readdir listed %d entries, want %d", len(ents), n)
	}
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Name >= ents[i].Name {
			t.Fatalf("merged listing out of order at %d: %q >= %q", i, ents[i-1].Name, ents[i].Name)
		}
	}
}

// TestCrossShardRenameMovesSubtree: a rename whose source and
// destination hash to different shards must move the whole subtree
// through the two-phase protocol and leave no intents behind.
func TestCrossShardRenameMovesSubtree(t *testing.T) {
	c, cl := shardedCluster(t, 4)
	src := nameOwnedBy(t, c.Shards, 0, "src")
	dst := nameOwnedBy(t, c.Shards, 1, "dst")

	if _, err := cl.Mkdir(0, src, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, src+"/a", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mkdir(0, src+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, src+"/sub/b", 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Rename(0, src, dst); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}

	for _, p := range []string{dst, dst + "/a", dst + "/sub", dst + "/sub/b"} {
		if _, _, err := cl.Stat(0, p); err != nil {
			t.Fatalf("after rename, stat %s: %v", p, err)
		}
	}
	if _, _, err := cl.Stat(0, src); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("source still visible after rename: %v", err)
	}
	if c.MDSes[0].Tree().Exists(src) {
		t.Fatal("source shard still holds the moved subtree")
	}
	if !c.MDSes[1].Tree().Exists(dst + "/sub/b") {
		t.Fatal("destination shard missing a moved descendant")
	}
	allIntentsDrained(t, c)
}

// TestCrossShardRenamePlainFile: the moved object can be a single
// regular file, not just a directory subtree — finalize must unlink it
// on the source shard (RemoveSubtree alone would refuse a non-directory,
// stranding both copies with the intent held).
func TestCrossShardRenamePlainFile(t *testing.T) {
	c, cl := shardedCluster(t, 2)
	srcDir := nameOwnedBy(t, c.Shards, 0, "sd")
	dstDir := nameOwnedBy(t, c.Shards, 1, "dd")

	now, err := cl.Mkdir(0, srcDir, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = cl.Mkdir(now, dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if now, err = cl.Create(now, srcDir+"/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if now, err = cl.Rename(now, srcDir+"/f", dstDir+"/g"); err != nil {
		t.Fatalf("cross-shard file rename: %v", err)
	}
	st, _, err := cl.Stat(now, dstDir+"/g")
	if err != nil {
		t.Fatalf("stat moved file: %v", err)
	}
	if st.IsDir() {
		t.Fatal("moved file arrived as a directory")
	}
	if _, _, err = cl.Stat(now, srcDir+"/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("source still visible after rename: %v", err)
	}
	if c.MDSes[0].Tree().Exists(srcDir + "/f") {
		t.Fatal("source shard still holds the moved file")
	}
	allIntentsDrained(t, c)
}

// TestCrossShardRenameDstExistsAborts: phase 2 failing (destination
// occupied) must abort the protocol, releasing the source intent and
// leaving the source subtree intact and mutable.
func TestCrossShardRenameDstExistsAborts(t *testing.T) {
	c, cl := shardedCluster(t, 4)
	src := nameOwnedBy(t, c.Shards, 0, "src")
	dst := nameOwnedBy(t, c.Shards, 1, "dst")

	if _, err := cl.Mkdir(0, src, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mkdir(0, dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rename(0, src, dst); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("rename onto occupied destination = %v, want ErrExist", err)
	}
	allIntentsDrained(t, c)
	if _, err := cl.Create(0, src+"/alive", 0o644); err != nil {
		t.Fatalf("source not mutable after aborted rename: %v", err)
	}
}

// TestShardedRmdirOfSpreadRoot: a mirrored directory's children live on
// their own shards, so its rmdir must refuse while any shard still holds
// an entry, then remove its mirror from every shard once empty.
func TestShardedRmdirOfSpreadRoot(t *testing.T) {
	c, cl := shardedCluster(t, 4)
	root := c.NewClient("node0", rootCred, 0, 0)
	child := nameOwnedBy(t, c.Shards, 2, "d")
	if _, err := cl.Mkdir(0, child, 0o755); err != nil {
		t.Fatal(err)
	}
	if !c.MDSes[2].Tree().Exists(child) {
		t.Fatal("child did not land on its shard")
	}

	if _, err := root.Rmdir(0, "/w"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir with a child on one shard = %v, want ErrNotEmpty", err)
	}
	allIntentsDrained(t, c)

	if _, err := cl.Rmdir(0, child); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Rmdir(0, "/w"); err != nil {
		t.Fatalf("rmdir of the emptied spread root: %v", err)
	}
	for i, m := range c.MDSes {
		if m.Tree().Exists("/w") {
			t.Fatalf("shard %d still holds the removed dir", i)
		}
	}
	allIntentsDrained(t, c)
}

// TestShardedRmTreeOfSpreadRoot: a recursive removal of a mirrored
// directory must sweep every shard, returning the union of removed paths.
func TestShardedRmTreeOfSpreadRoot(t *testing.T) {
	c, cl := shardedCluster(t, 4)
	own := nameOwnedBy(t, c.Shards, 1, "own")
	dir := nameOwnedBy(t, c.Shards, 3, "d")
	if _, err := cl.Create(0, own, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{dir, dir + "/sub"} {
		if _, err := cl.Mkdir(0, p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Create(0, dir+"/sub/leaf", 0o644); err != nil {
		t.Fatal(err)
	}

	removed, _, err := c.NewClient("node0", rootCred, 0, 0).RmTree(0, "/w")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"/w": true, own: true, dir: true, dir + "/sub": true, dir + "/sub/leaf": true}
	for _, p := range removed {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("rmtree union missing %v (got %v)", want, removed)
	}
	for i, m := range c.MDSes {
		if m.Tree().Exists("/w") {
			t.Fatalf("shard %d still holds the swept dir", i)
		}
	}
	allIntentsDrained(t, c)
}

// TestShardIntentInterleavings drives the documented interleavings of
// the two-phase protocols against concurrent mutations, each staged
// deterministically by planting the protocol's intent by hand.
func TestShardIntentInterleavings(t *testing.T) {
	cases := []struct {
		name string
		op   string // intent op label
		run  func(t *testing.T, c *Cluster, cl *Client, dir string)
	}{
		{
			// A create into a directory mid-cross-shard-rename must fail
			// ErrStale while the source intent is held, and succeed the
			// moment it releases.
			name: "create into renaming dir",
			op:   "rename",
			run: func(t *testing.T, c *Cluster, cl *Client, dir string) {
				m := c.MDSes[c.Shards.Owner(dir)]
				if err := m.putIntent("rename", dir, 900); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Create(0, dir+"/x", 0o644); !errors.Is(err, fsapi.ErrStale) {
					t.Fatalf("create under renaming dir = %v, want ErrStale", err)
				}
				m.delIntent(dir, 900)
				if _, err := cl.Create(0, dir+"/x", 0o644); err != nil {
					t.Fatalf("create after intent release: %v", err)
				}
			},
		},
		{
			// A create under a mirrored directory racing its rmdir vote
			// must fail ErrStale while the vote's intent is held — it
			// cannot sneak an entry onto a shard that already voted
			// "empty".
			name: "rmdir vote racing spread create",
			op:   "rmdir",
			run: func(t *testing.T, c *Cluster, cl *Client, dir string) {
				k := (c.Shards.Owner(dir) + 1) % c.Shards.N()
				child := nameOwnedBy(t, c.Shards, k, "v")
				m := c.MDSes[k]
				if err := m.putIntent("rmdir", "/w", 901); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Mkdir(0, child, 0o755); !errors.Is(err, fsapi.ErrStale) {
					t.Fatalf("create under rmdir vote = %v, want ErrStale", err)
				}
				m.delIntent("/w", 901)
				if _, err := cl.Mkdir(0, child, 0o755); err != nil {
					t.Fatalf("create after vote release: %v", err)
				}
			},
		},
		{
			// An aborted cross-shard rename (occupied destination) must
			// release its intent: the very next create under the source
			// succeeds with no manual cleanup.
			name: "abort releases intent",
			op:   "rename",
			run: func(t *testing.T, c *Cluster, cl *Client, dir string) {
				dst := nameOwnedBy(t, c.Shards, (c.Shards.Owner(dir)+1)%c.Shards.N(), "blk")
				if _, err := cl.Create(0, dst, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Rename(0, dir, dst); !errors.Is(err, fsapi.ErrExist) {
					t.Fatalf("rename onto occupied dst = %v, want ErrExist", err)
				}
				if _, err := cl.Create(0, dir+"/alive", 0o644); err != nil {
					t.Fatalf("create after aborted rename: %v", err)
				}
			},
		},
	}
	for i, tc := range cases {
		tc, i := tc, i
		t.Run(tc.name, func(t *testing.T) {
			c, cl := shardedCluster(t, 4)
			dir := nameOwnedBy(t, c.Shards, i%4, "t")
			if _, err := cl.Mkdir(0, dir, 0o755); err != nil {
				t.Fatal(err)
			}
			tc.run(t, c, cl, dir)
			allIntentsDrained(t, c)
		})
	}
}

// TestCrossShardRenameConcurrentCreate races real cross-shard renames
// against creates into the moving directory (run under -race). Every
// outcome in the protocol's contract is tolerated; afterwards the file
// must exist in exactly one place and no intent may linger.
func TestCrossShardRenameConcurrentCreate(t *testing.T) {
	c, cl := shardedCluster(t, 2)
	cl2 := c.NewClient("node1", appCred, 0, 0)
	for round := 0; round < 24; round++ {
		src := nameOwnedBy(t, c.Shards, 0, fmt.Sprintf("r%dsrc", round))
		dst := nameOwnedBy(t, c.Shards, 1, fmt.Sprintf("r%ddst", round))
		if _, err := cl.Mkdir(0, src, 0o755); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var renameErr, createErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, renameErr = cl.Rename(0, src, dst)
		}()
		go func() {
			defer wg.Done()
			_, createErr = cl2.Create(0, src+"/f", 0o644)
		}()
		wg.Wait()
		if renameErr != nil && !errors.Is(renameErr, fsapi.ErrStale) {
			t.Fatalf("round %d: rename = %v", round, renameErr)
		}
		if createErr != nil && !errors.Is(createErr, fsapi.ErrStale) && !errors.Is(createErr, fsapi.ErrNotExist) {
			t.Fatalf("round %d: create = %v", round, createErr)
		}
		atSrc := c.OracleExists(src + "/f")
		atDst := c.OracleExists(dst + "/f")
		if atSrc && atDst {
			t.Fatalf("round %d: created file duplicated across shards", round)
		}
		if createErr == nil && renameErr == nil && !atSrc && !atDst {
			t.Fatalf("round %d: created file lost by the rename", round)
		}
		if renameErr == nil && c.OracleExists(src) {
			t.Fatalf("round %d: source survived a successful rename", round)
		}
		allIntentsDrained(t, c)
	}
}

// shardSpanRecorder mirrors internal/rpc's trace_test recorder: it
// captures which service address handled each traced RPC.
type shardSpanRecorder struct {
	mu    sync.Mutex
	spans []uint64
	addrs []string
}

func (r *shardSpanRecorder) ObserveRPC(addr, method string, d time.Duration, err error) {}

func (r *shardSpanRecorder) ObserveServerSpan(span uint64, hop uint8, addr, method string, start time.Time, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span)
	r.addrs = append(r.addrs, addr)
}

// TestShardedTraceAttribution: with a traced client, ops routed to
// different shards must surface their server-side span events under the
// distinct shard addresses — the per-shard attribution the profiler's
// dfs_apply breakdown keys on.
func TestShardedTraceAttribution(t *testing.T) {
	bus := rpc.NewBus()
	c := NewClusterSharded(bus, vclock.Default(), rootCred, "storage0", 2, []string{"/w"}, nil)
	root := c.NewClient("node0", rootCred, 0, 0)
	if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	rec := &shardSpanRecorder{}
	bus.SetObserver(rec)

	cl := c.NewClient("node0", appCred, 0, 0)
	cl.SetTrace(77)
	p0 := nameOwnedBy(t, c.Shards, 0, "a")
	p1 := nameOwnedBy(t, c.Shards, 1, "b")
	if _, err := cl.Create(0, p0, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, p1, 0o644); err != nil {
		t.Fatal(err)
	}
	cl.ClearTrace()
	if _, err := cl.Create(0, nameOwnedBy(t, c.Shards, 0, "c"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	seen := map[string]bool{}
	for i, sp := range rec.spans {
		if sp != 77 {
			t.Fatalf("event %d carries span %d, want 77 (cleared caller must not trace)", i, sp)
		}
		seen[rec.addrs[i]] = true
	}
	for _, addr := range c.MDSAddrs {
		if !seen[addr] {
			t.Fatalf("no span event attributed to shard %s (saw %v)", addr, seen)
		}
	}
}

// TestOversizedCountIsAnErrorNotAPanic: the three decoders that size a
// slice by a count read off the wire — apply_batch (the commit path's own
// RPC), xfer_apply and the client's reading of an xfer_prepare reply —
// must reject a count no frame of that size could hold. A peer's ten
// bytes used to panic the MDS with "makeslice: cap out of range".
func TestOversizedCountIsAnErrorNotAPanic(t *testing.T) {
	c, cl := shardedCluster(t, 2)
	caller := rpc.NewCaller(c.Net, c.Model, "node0")
	frame := func(head func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(32)
		head(e)
		e.Uvarint(1 << 60)
		return e.Bytes()
	}
	cred := func(e *wire.Encoder) {
		e.Uint32(appCred.UID)
		e.Uint32(appCred.GID)
	}
	for method, body := range map[string][]byte{
		"apply_batch": frame(cred),
		"xfer_apply":  frame(func(e *wire.Encoder) { e.String("/w/dst"); cred(e) }),
	} {
		if _, resp, err := caller.Call(c.MDSAddrs[0], method, 0, body); err == nil || resp != nil {
			t.Fatalf("%s accepted a count of 2^60 in a %d-byte frame: reply %x, err %v", method, len(body), resp, err)
		}
	}

	// The source shard answers xfer_prepare with the same count: the
	// rename fails, releases its intent, and moves nothing.
	src := nameOwnedBy(t, c.Shards, 0, "src")
	dst := nameOwnedBy(t, c.Shards, 1, "dst")
	if _, err := cl.Mkdir(0, src, 0o755); err != nil {
		t.Fatal(err)
	}
	released := false
	liar := rpc.NewService()
	liar.Handle("xfer_prepare", func(at vclock.Time, _ []byte) (vclock.Time, []byte, error) {
		return at, frame(func(*wire.Encoder) {}), nil
	})
	liar.Handle("intent_del", func(at vclock.Time, _ []byte) (vclock.Time, []byte, error) {
		released = true
		return at, nil, nil
	})
	c.Net.Register(c.MDSAddrs[0], liar)
	if _, err := cl.Rename(0, src, dst); !errors.Is(err, wire.ErrTooLong) {
		t.Fatalf("rename over an oversized xfer_prepare reply = %v, want %v", err, wire.ErrTooLong)
	}
	if !released {
		t.Fatal("failed rename left its source intent held")
	}
	if c.MDSes[1].Tree().Exists(dst) {
		t.Fatal("failed rename materialized the destination")
	}
}

// mdsMethods is every endpoint MDS.Service registers.
var mdsMethods = []string{
	"lookup", "stat_batch", "apply_batch", "rename", "rmtree", "readdir",
	"xfer_prepare", "xfer_apply", "rmdir_prepare", "intent_put", "intent_finish", "intent_del",
}

// TestOversizedReplyCountIsAnErrorNotAHang is the client's side of
// TestOversizedCountIsAnErrorNotAPanic: the rmtree and readdir reply
// decoders sized a slice — and, merging across shards, bounded a loop —
// by a count read bare off the wire, so ten bytes from an MDS panicked
// the client with "makeslice: cap out of range" or spun it 2^60 times.
// Shard 0 here does its work and then lies about the count; on one
// shard and on four the operation must come back with the decoder's
// error, promptly, and leave no intent behind.
func TestOversizedReplyCountIsAnErrorNotAHang(t *testing.T) {
	huge := wire.NewEncoder(16)
	huge.Uvarint(1 << 60)
	for _, shards := range []int{1, 4} {
		c, _ := shardedCluster(t, shards)
		cl := c.NewClient("node0", rootCred, 0, 0) // /w's parent is root's
		// The real shard 0 moves to a side address; what answers at its
		// own forwards every call there and doctors two replies.
		const side = "storage0/honest"
		c.Net.Register(side, c.MDSes[0].Service())
		liar := rpc.NewService()
		for _, method := range mdsMethods {
			liar.Handle(method, func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
				done, resp, err := c.Net.Invoke(side, method, at, body)
				if err == nil && (method == "rmtree" || method == "readdir") {
					resp = huge.Bytes()
				}
				return done, resp, err
			})
		}
		c.Net.Register(c.MDSAddrs[0], liar)

		finished := make(chan error, 2)
		go func() {
			_, _, err := cl.Readdir(0, "/w")
			finished <- err
			_, _, err = cl.RmTree(0, "/w")
			finished <- err
		}()
		for _, op := range []string{"readdir", "rmtree"} {
			select {
			case err := <-finished:
				if !errors.Is(err, wire.ErrTooLong) {
					t.Fatalf("%d shard(s): %s over a reply counting 2^60 entries = %v, want %v", shards, op, err, wire.ErrTooLong)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%d shard(s): %s still decoding a ten-byte reply", shards, op)
			}
		}
		allIntentsDrained(t, c)
	}
}

// TestLostFinishReply: a finish step whose call fails in transport may or
// may not have run. A rename's or rmdir's finish answers nothing and is
// simply sent again. An rmtree's sweep answers with what it removed: sent
// again after it ran it would say ENOENT, which RmTree reads as "this
// shard never held the directory" — the shard's removed paths would drop
// out of the union the region mirrors into its cache, or a removed tree
// would be reported missing. So RmTree reports the transport's error,
// and the intent of a sweep that never arrived is still released. The
// swept tree is the mirrored /w, so every shard takes part; shard 1's
// front loses one reply per case, after running the call or before.
func TestLostFinishReply(t *testing.T) {
	for _, ran := range []bool{true, false} {
		c, cl := shardedCluster(t, 4)
		dir := nameOwnedBy(t, c.Shards, 1, "d")
		other := nameOwnedBy(t, c.Shards, 2, "o")
		for _, p := range []string{dir, other, dir + "/moved"} {
			if _, err := cl.Mkdir(0, p, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		const side = "storage0/honest"
		c.Net.Register(side, c.MDSes[1].Service())
		var lose string // the method whose next reply is lost
		front := rpc.NewService()
		for _, method := range mdsMethods {
			front.Handle(method, func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
				if method != lose {
					return c.Net.Invoke(side, method, at, body)
				}
				lose = ""
				if ran {
					c.Net.Invoke(side, method, at, body)
				}
				return at, nil, fsapi.ErrClosed
			})
		}
		c.Net.Register(c.MDSAddrs[1], front)

		lose = "intent_finish"
		if _, err := cl.Rename(0, dir+"/moved", other+"/moved"); err != nil {
			t.Fatalf("ran=%v: rename whose finish was lost once = %v", ran, err)
		}
		if c.MDSes[1].Tree().Exists(dir+"/moved") || !c.MDSes[2].Tree().Exists(other+"/moved") {
			t.Fatalf("ran=%v: rename left the source, or never made the destination", ran)
		}
		allIntentsDrained(t, c)

		lose = "rmtree"
		removed, _, err := c.NewClient("node0", rootCred, 0, 0).RmTree(0, "/w")
		if !errors.Is(err, fsapi.ErrClosed) {
			t.Fatalf("ran=%v: rmtree whose sweep of shard 1 was lost = %v, %v; want %v", ran, removed, err, fsapi.ErrClosed)
		}
		if c.MDSes[1].Tree().Exists(dir) == ran {
			t.Fatalf("ran=%v: shard 1 holds %s = %v", ran, dir, !ran)
		}
		if c.MDSes[2].Tree().Exists("/w") {
			t.Fatalf("ran=%v: shard 2 kept /w through a sweep it answered", ran)
		}
		allIntentsDrained(t, c)
	}
}
