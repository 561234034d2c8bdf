package dfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
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
		if n := m.Intents(); n != 0 {
			t.Fatalf("shard %d holds %d intents after the protocol finished", i, n)
		}
	}
}

func TestShardMapPartition(t *testing.T) {
	sm := NewShardMap([]string{"a", "b", "c", "d"}, []string{"/w"})

	for _, p := range []string{"/", "/w"} {
		if !sm.Structural(p) {
			t.Fatalf("Structural(%s) = false, want true", p)
		}
	}
	if sm.Structural("/w/x") {
		t.Fatal("Structural(/w/x) = true, want false (hash zone)")
	}

	// Parent affinity: everything under one /w child shares its shard.
	for _, sub := range []string{"/w/x/y", "/w/x/y/z", "/w/x/deep/er/file"} {
		if sm.Owner(sub) != sm.Owner("/w/x") {
			t.Fatalf("Owner(%s) = %d, want %d (parent affinity)", sub, sm.Owner(sub), sm.Owner("/w/x"))
		}
	}

	// Sibling subtrees spread: 64 names must hit more than one shard.
	owners := map[int]bool{}
	for i := 0; i < 64; i++ {
		owners[sm.Owner(fmt.Sprintf("/w/s%d", i))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("64 sibling subtrees all hashed to one shard: %v", owners)
	}

	// Explicit delegation overrides the hash by longest prefix.
	hashOwner := sm.Owner("/w/x")
	deleg := (hashOwner + 1) % 4
	if err := sm.Delegate("/w/x/sub", deleg); err != nil {
		t.Fatal(err)
	}
	if got := sm.Owner("/w/x/sub/file"); got != deleg {
		t.Fatalf("delegated Owner = %d, want %d", got, deleg)
	}
	if got := sm.Owner("/w/x/other"); got != hashOwner {
		t.Fatalf("sibling of delegation moved: Owner = %d, want %d", got, hashOwner)
	}
	if got := sm.DelegationShardsUnder("/w/x"); len(got) != 1 || got[0] != deleg {
		t.Fatalf("DelegationShardsUnder(/w/x) = %v, want [%d]", got, deleg)
	}
	if !sm.CrossesDelegation("/w/x") {
		t.Fatal("CrossesDelegation(/w/x) = false with a delegation inside")
	}
	if sm.CrossesDelegation("/w/x/sub") {
		t.Fatal("CrossesDelegation(/w/x/sub) = true for the delegation root itself")
	}
	if err := sm.Delegate("/w", 0); err == nil {
		t.Fatal("delegating a structural path must be refused")
	}
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

// TestShardedRmdirWithDelegation: a directory whose children span
// shards (via delegation) must refuse rmdir while any shard still holds
// entries, then remove its mirror from every involved shard once empty.
func TestShardedRmdirWithDelegation(t *testing.T) {
	c, cl := shardedCluster(t, 4)
	dir := nameOwnedBy(t, c.Shards, 0, "d")
	if _, err := cl.Mkdir(0, dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(dir+"/sub", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mkdir(0, dir+"/sub", 0o755); err != nil {
		t.Fatalf("mkdir on delegated shard: %v", err)
	}
	if !c.MDSes[2].Tree().Exists(dir + "/sub") {
		t.Fatal("delegated child did not land on its shard")
	}

	if _, err := cl.Rmdir(0, dir); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir with a delegated child = %v, want ErrNotEmpty", err)
	}
	allIntentsDrained(t, c)

	if _, err := cl.Rmdir(0, dir+"/sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rmdir(0, dir); err != nil {
		t.Fatalf("rmdir of emptied spanning dir: %v", err)
	}
	for i, m := range c.MDSes {
		if m.Tree().Exists(dir) {
			t.Fatalf("shard %d still holds the removed dir", i)
		}
	}
	allIntentsDrained(t, c)
}

// TestShardedRmTreeWithDelegation: a recursive removal must sweep the
// owner shard and every delegate, returning the union of removed paths.
func TestShardedRmTreeWithDelegation(t *testing.T) {
	c, cl := shardedCluster(t, 4)
	dir := nameOwnedBy(t, c.Shards, 1, "d")
	if _, err := cl.Mkdir(0, dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, dir+"/own", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(dir+"/sub", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mkdir(0, dir+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, dir+"/sub/leaf", 0o644); err != nil {
		t.Fatal(err)
	}

	removed, _, err := cl.RmTree(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{dir: true, dir + "/own": true, dir + "/sub": true, dir + "/sub/leaf": true}
	for _, p := range removed {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("rmtree union missing %v (got %v)", want, removed)
	}
	for i, m := range c.MDSes {
		if m.Tree().Exists(dir) {
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
			// A delegated-child create racing a multi-shard rmdir vote
			// must fail ErrStale while the vote's intent is held — it
			// cannot sneak an entry onto a shard that already voted
			// "empty".
			name: "rmdir vote racing delegated create",
			op:   "rmdir",
			run: func(t *testing.T, c *Cluster, cl *Client, dir string) {
				deleg := (c.Shards.Owner(dir) + 1) % c.Shards.N()
				if err := c.Delegate(dir+"/sub", deleg); err != nil {
					t.Fatal(err)
				}
				m := c.MDSes[deleg]
				if err := m.putIntent("rmdir", dir, 901); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Mkdir(0, dir+"/sub", 0o755); !errors.Is(err, fsapi.ErrStale) {
					t.Fatalf("delegated create under rmdir vote = %v, want ErrStale", err)
				}
				m.delIntent(dir, 901)
				if _, err := cl.Mkdir(0, dir+"/sub", 0o755); err != nil {
					t.Fatalf("delegated create after vote release: %v", err)
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
		if _, resp, err := caller.Call(c.MDSAddr, method, 0, body); err == nil || resp != nil {
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
	c.Net.Register(c.Shards.AddrOf(0), liar)
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
		c.Net.Register(c.Shards.AddrOf(0), liar)

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
// and the intent of a sweep that never arrived is still released. Shard
// 1's front loses one reply per case, after running the call or before.
func TestLostFinishReply(t *testing.T) {
	for _, ran := range []bool{true, false} {
		c, cl := shardedCluster(t, 4)
		dir := nameOwnedBy(t, c.Shards, 1, "d")
		other := nameOwnedBy(t, c.Shards, 2, "o")
		for _, p := range []string{dir, other} {
			if _, err := cl.Mkdir(0, p, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Delegate(dir+"/sub", 3); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{dir + "/sub", dir + "/moved"} {
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
		c.Net.Register(c.Shards.AddrOf(1), front)

		lose = "intent_finish"
		if _, err := cl.Rename(0, dir+"/moved", other+"/moved"); err != nil {
			t.Fatalf("ran=%v: rename whose finish was lost once = %v", ran, err)
		}
		if c.MDSes[1].Tree().Exists(dir+"/moved") || !c.MDSes[2].Tree().Exists(other+"/moved") {
			t.Fatalf("ran=%v: rename left the source, or never made the destination", ran)
		}
		allIntentsDrained(t, c)

		lose = "rmtree"
		removed, _, err := cl.RmTree(0, dir)
		if !errors.Is(err, fsapi.ErrClosed) {
			t.Fatalf("ran=%v: rmtree whose sweep of shard 1 was lost = %v, %v; want %v", ran, removed, err, fsapi.ErrClosed)
		}
		if c.MDSes[1].Tree().Exists(dir) == ran {
			t.Fatalf("ran=%v: shard 1 holds %s = %v", ran, dir, !ran)
		}
		allIntentsDrained(t, c)
	}
}
