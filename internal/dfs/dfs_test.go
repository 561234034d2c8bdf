package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

var (
	rootCred = fsapi.Cred{UID: 0, GID: 0}
	appCred  = fsapi.Cred{UID: 1000, GID: 1000}
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	return NewCluster(rpc.NewBus(), vclock.Default(), rootCred, "storage0", []string{"storage1", "storage2", "storage3"})
}

// lookups sums the path lookups the cluster's MDS shards have answered.
func lookups(c *Cluster) int64 {
	var n int64
	for _, m := range c.MDSes {
		n += m.Stats().Lookups
	}
	return n
}

// appClient returns a client with an app workspace prepared at /w.
func appClient(t *testing.T, c *Cluster) *Client {
	t.Helper()
	root := c.NewClient("node0", rootCred, 0, 0)
	if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	return c.NewClient("node0", appCred, 0, 0)
}

func TestMkdirCreateStat(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	if _, err := cl.Mkdir(0, "/w/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, "/w/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := cl.Stat(0, "/w/d/f")
	if err != nil || st.Type != fsapi.TypeFile || st.UID != appCred.UID {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	st, _, err = cl.Stat(0, "/w/d")
	if err != nil || !st.IsDir() {
		t.Fatalf("dir stat = %+v, %v", st, err)
	}
}

func TestNamespaceConventionsOverRPC(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Create(0, "/w/f", 0o644)
	if _, err := cl.Create(0, "/w/f", 0o644); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("dup create = %v", err)
	}
	if _, err := cl.Create(0, "/w/ghost/f", 0o644); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("orphan create = %v", err)
	}
	if _, err := cl.Remove(0, "/w/ghost"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("remove missing = %v", err)
	}
	if _, _, err := cl.Stat(0, "/w/nothing"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat missing = %v", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	c := testCluster(t)
	root := c.NewClient("node0", rootCred, 0, 0)
	// /private is root-owned, no access for others.
	if _, err := root.Mkdir(0, "/private", 0o700); err != nil {
		t.Fatal(err)
	}
	app := c.NewClient("node0", appCred, 0, 0)
	if _, err := app.Create(0, "/private/f", 0o644); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("create in private dir = %v", err)
	}
	if _, _, err := app.Stat(0, "/private/f"); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("stat through private dir = %v", err)
	}
	// A world-writable dir admits the app user.
	if _, err := root.Mkdir(0, "/shared", 0o777); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Create(0, "/shared/f", 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReaddir(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Create(0, "/w/b", 0o644)
	cl.Mkdir(0, "/w/a", 0o755)
	ents, _, err := cl.Readdir(0, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "a" || !((ents[0].Type == fsapi.TypeDir) && (ents[1].Type == fsapi.TypeFile)) {
		t.Fatalf("readdir = %v", ents)
	}
}

func TestRmdirAndRmTree(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Mkdir(0, "/w/d", 0o755)
	cl.Create(0, "/w/d/f1", 0o644)
	if _, err := cl.Rmdir(0, "/w/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	removed, _, err := cl.RmTree(0, "/w/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 || removed[len(removed)-1] != "/w/d" {
		t.Fatalf("rmtree removed = %v", removed)
	}
	if _, _, err := cl.Stat(0, "/w/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("dir survived rmtree")
	}
}

func TestTraversalCostGrowsWithDepth(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	// Build /w/d1/d2/d3/d4/d5.
	p := "/w"
	for i := 1; i <= 5; i++ {
		p = fmt.Sprintf("%s/d%d", p, i)
		if _, err := cl.Mkdir(0, p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Stat at depth 2 vs depth 6; each uses a fresh client (cold cache)
	// and an idle MDS (at well past previous completions).
	base := vclock.Time(time.Second)
	c2 := c.NewClient("node9", appCred, 0, 0)
	_, d2done, err := c2.Stat(base, "/w/d1")
	if err != nil {
		t.Fatal(err)
	}
	c6 := c.NewClient("node9", appCred, 0, 0)
	_, d6done, err := c6.Stat(base+vclock.Time(time.Second), p)
	if err != nil {
		t.Fatal(err)
	}
	lat2 := d2done.Sub(base)
	lat6 := d6done.Sub(base + vclock.Time(time.Second))
	if lat6 <= lat2 {
		t.Fatalf("deep stat (%v) must cost more than shallow stat (%v)", lat6, lat2)
	}
	// Depth 6 resolves 7 components vs 3 — at least twice the RPCs.
	if float64(lat6) < 1.8*float64(lat2) {
		t.Fatalf("depth cost ratio too small: %v vs %v", lat6, lat2)
	}
}

func TestDentryCacheCutsLookups(t *testing.T) {
	c := testCluster(t)
	root := c.NewClient("node0", rootCred, 0, 0)
	root.Mkdir(0, "/w", 0o777)
	cached := c.NewClient("node0", appCred, 1024, time.Hour)
	before := lookups(c)
	at := vclock.Time(0)
	var err error
	for i := 0; i < 50; i++ {
		at, err = cached.Create(at, fmt.Sprintf("/w/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	// 2 ancestor lookups on the first create, none after.
	if got := lookups(c) - before; got != 2 {
		t.Fatalf("cached client lookups = %d, want 2", got)
	}

	uncached := c.NewClient("node0", appCred, 0, 0)
	before = lookups(c)
	at = 0
	for i := 0; i < 50; i++ {
		at, err = uncached.Create(at, fmt.Sprintf("/w/u%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := lookups(c) - before; got != 100 {
		t.Fatalf("uncached client lookups = %d, want 100", got)
	}
}

func TestMDSSaturationLimitsAggregateThroughput(t *testing.T) {
	c := testCluster(t)
	root := c.NewClient("node0", rootCred, 0, 0)
	root.Mkdir(0, "/w", 0o777)

	const clients = 32
	const per = 40
	var wg sync.WaitGroup
	ends := make([]vclock.Time, clients)
	pacer := vclock.NewPacer(clients, 0)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer pacer.Done(g)
			cl := c.NewClient(fmt.Sprintf("node%d", g%16), appCred, 0, 0)
			cl.Pace(pacer, g)
			now := vclock.Time(0)
			var err error
			for i := 0; i < per; i++ {
				now, err = cl.Create(now, fmt.Sprintf("/w/c%d-f%d", g, i), 0o644)
				if err != nil {
					t.Error(err)
					return
				}
			}
			ends[g] = now
		}(g)
	}
	wg.Wait()

	// The MDS pool must be the bottleneck: its busy time across workers
	// should dominate the horizon.
	horizon := slices.Max(ends).Sub(0)
	util := c.MDS.Resource().Utilization(horizon)
	if util < 0.8 {
		t.Fatalf("MDS utilization %.2f — expected saturation under 32 concurrent clients", util)
	}
	if n := strings.Count(dumpTree(t, c.MDS), "\n"); n != clients*per+2 { // root, /w and the files
		t.Fatalf("namespace has %d objects", n)
	}
}

func TestDataPathWriteReadRoundTrip(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Create(0, "/w/data.bin", 0o644)

	// 1.2 MB spans 3 chunks across the 3 data servers.
	payload := make([]byte, 1200*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	at, err := cl.WriteAt(0, "/w/data.bin", 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	st, at, err := cl.Stat(at, "/w/data.bin")
	if err != nil || st.Size != int64(len(payload)) {
		t.Fatalf("size = %d, err %v", st.Size, err)
	}
	got, _, err := cl.ReadAt(at, "/w/data.bin", 0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch")
	}
	// Unaligned read across a chunk boundary.
	got, _, err = cl.ReadAt(at, "/w/data.bin", ChunkSize-100, 200)
	if err != nil || len(got) != 200 {
		t.Fatalf("boundary read len=%d err=%v", len(got), err)
	}
	if !bytes.Equal(got, payload[ChunkSize-100:ChunkSize+100]) {
		t.Fatal("boundary read mismatch")
	}
}

func TestDataStripingUsesAllServers(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Create(0, "/w/big", 0o644)
	if _, err := cl.WriteAt(0, "/w/big", 0, make([]byte, 3*ChunkSize)); err != nil {
		t.Fatal(err)
	}
	for i, ds := range c.Data {
		if ds.ChunkCount() == 0 {
			t.Fatalf("data server %d received no chunks", i)
		}
	}
	// Removing the file frees them all.
	if _, err := cl.Remove(0, "/w/big"); err != nil {
		t.Fatal(err)
	}
	for i, ds := range c.Data {
		if ds.ChunkCount() != 0 {
			t.Fatalf("data server %d still holds chunks", i)
		}
	}
}

func TestReadPastEOFAndSparse(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Create(0, "/w/f", 0o644)
	cl.WriteAt(0, "/w/f", 0, []byte("abc"))
	got, _, err := cl.ReadAt(0, "/w/f", 10, 5)
	if err != nil || got != nil {
		t.Fatalf("past-EOF read = %q, %v", got, err)
	}
	// Sparse write at an offset: the gap reads back as zeros.
	cl.WriteAt(0, "/w/f", 100, []byte("xyz"))
	got, _, err = cl.ReadAt(0, "/w/f", 0, 103)
	if err != nil || len(got) != 103 {
		t.Fatalf("sparse read len=%d err=%v", len(got), err)
	}
	if string(got[:3]) != "abc" || got[50] != 0 || string(got[100:]) != "xyz" {
		t.Fatal("sparse content wrong")
	}
}

// TestDisjointWritersPastEOFKeepTheirBytes is the N-1 strided pattern:
// writers at disjoint offsets, each beyond the size it saw. A write
// touches the bytes it was given and no others — a writer that filled
// the hole below its offset, going by a size it read earlier, would
// erase a neighbour's acked stripe. (The writers' size updates do race,
// last one wins; the closing write sets the size the check reads by.)
func TestDisjointWritersPastEOFKeepTheirBytes(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	const stripe, writers = 4096, 4
	for round := 0; round < 20; round++ {
		p := fmt.Sprintf("/w/strided%d", round)
		cl.Create(0, p, 0o644)
		cl.WriteAt(0, p, 0, bytes.Repeat([]byte{'0'}, stripe))
		var wg sync.WaitGroup
		for w := 1; w <= writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wc := c.NewClient(fmt.Sprintf("node%d", w), appCred, 0, 0)
				if _, err := wc.WriteAt(0, p, int64(w*stripe), bytes.Repeat([]byte{byte('0' + w)}, stripe)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		end := (writers + 1) * stripe
		cl.WriteAt(0, p, int64(end), []byte{'.'})
		got, _, err := cl.ReadAt(0, p, 0, end)
		if err != nil || len(got) != end {
			t.Fatalf("round %d: read %d bytes, %v", round, len(got), err)
		}
		for i, b := range got {
			if want := byte('0' + i/stripe); b != want {
				t.Fatalf("round %d: byte %d = %q, want %q: a stripe was overwritten", round, i, b, want)
			}
		}
	}
}

func TestWriteToDirectoryFails(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	if _, err := cl.WriteAt(0, "/w", 0, []byte("x")); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("write to dir = %v", err)
	}
}

func TestMDSStatsCount(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	cl.Create(0, "/w/f", 0o644)
	cl.Stat(0, "/w/f")
	cl.Readdir(0, "/w")
	st := c.MDS.Stats()
	if st.Writes < 2 { // /w mkdir + create
		t.Fatalf("writes = %d", st.Writes)
	}
	if st.Lookups == 0 || st.Reads == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientRenameMovesDataChunks: a file's chunks follow it through a
// rename without being touched — in one shard and across two, the data
// servers serve nothing while the rename runs (chunks are keyed by the
// inode, which the rename keeps), the bytes read back at the new name
// and the old name is gone.
func TestClientRenameMovesDataChunks(t *testing.T) {
	c := NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "storage0", 2, []string{"/w"},
		[]string{"storage1", "storage2", "storage3"})
	if _, err := c.NewClient("node0", rootCred, 0, 0).Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 0, 0)
	src, far := nameOwnedBy(t, c.Shards, 0, "src"), nameOwnedBy(t, c.Shards, 1, "far")
	for _, d := range []string{src, far} {
		if _, err := cl.Mkdir(0, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	payload := bytes.Repeat([]byte{7}, 600*1024) // spans two chunks
	if _, err := cl.Create(0, src+"/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WriteAt(0, src+"/f", 0, payload); err != nil {
		t.Fatal(err)
	}
	served := func() (n int64) {
		for _, ds := range c.Data {
			n += ds.res.Ops()
		}
		return n
	}
	// In one shard, a file across shards, a directory across shards.
	for _, mv := range [][2]string{{src + "/f", src + "/g"}, {src + "/g", far + "/h"}, {far, src + "/sub"}} {
		before := served()
		if _, err := cl.Rename(0, mv[0], mv[1]); err != nil {
			t.Fatalf("rename %s → %s: %v", mv[0], mv[1], err)
		}
		if n := served() - before; n != 0 {
			t.Fatalf("rename %s → %s: data servers served %d requests", mv[0], mv[1], n)
		}
		if _, _, err := cl.Stat(0, mv[0]); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("source %s still present: %v", mv[0], err)
		}
	}
	got, _, err := cl.ReadAt(0, src+"/sub/h", 0, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data after renames: len=%d err=%v", len(got), err)
	}
}

func TestDentryTTLExpiry(t *testing.T) {
	c := testCluster(t)
	root := c.NewClient("node0", rootCred, 0, 0)
	root.Mkdir(0, "/w", 0o777)
	// TTL-limited cache: lookups repeat once entries expire.
	cl := c.NewClient("node0", appCred, 1024, 100*time.Microsecond)
	at := vclock.Time(0)
	var err error
	if at, err = cl.Create(at, "/w/f0", 0o644); err != nil {
		t.Fatal(err)
	}
	first := lookups(c)
	// Well past the TTL: ancestors must be re-fetched.
	if _, err = cl.Create(at+vclock.Time(time.Second), "/w/f1", 0o644); err != nil {
		t.Fatal(err)
	}
	if lookups(c) <= first {
		t.Fatal("expired dentries were reused")
	}
}

func TestMultiMDSSharesNamespaceAndScales(t *testing.T) {
	bus := rpc.NewBus()
	c := NewClusterSharded(bus, vclock.Default(), rootCred, "m", 4, []string{"/w"}, []string{"s1"})
	root := c.NewClient("node0", rootCred, 0, 0)
	if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 0, 0)
	at := vclock.Time(0)
	var err error
	for i := 0; i < 200; i++ {
		if at, err = cl.Create(at, fmt.Sprintf("/w/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// One namespace: every file visible regardless of which MDS owns
	// it, and all four MDSes carried load.
	ents, _, err := cl.Readdir(at, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 200 {
		t.Fatalf("namespace lists %d files, want 200", len(ents))
	}
	for i, m := range c.MDSes {
		// Every shard mirrors the one mkdir of /w; anything beyond it
		// is a file create routed here.
		if m.Stats().Writes <= 1 {
			t.Fatalf("MDS %d took no creates — path-hash routing broken", i)
		}
	}
	// And a saturated multi-MDS run outpaces a single MDS.
	single := NewCluster(rpc.NewBus(), vclock.Default(), rootCred, "m0", []string{"s1"})
	sr := single.NewClient("node0", rootCred, 0, 0)
	sr.Mkdir(0, "/w", 0o777)

	run := func(cluster *Cluster) vclock.Duration {
		const clients, per = 24, 30
		var wg sync.WaitGroup
		ends := make([]vclock.Time, clients)
		pacer := vclock.NewPacer(clients, 0)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				defer pacer.Done(g)
				cl := cluster.NewClient(fmt.Sprintf("node%d", g%8), appCred, 0, 0)
				cl.Pace(pacer, g)
				now := vclock.Time(0)
				var err error
				for i := 0; i < per; i++ {
					now, err = cl.Create(now, fmt.Sprintf("/w/c%d-%d", g, i), 0o644)
					if err != nil {
						t.Error(err)
						return
					}
				}
				ends[g] = now
			}(g)
		}
		wg.Wait()
		return slices.Max(ends).Sub(0)
	}
	multiTime := run(c)
	singleTime := run(single)
	if float64(singleTime) < 1.5*float64(multiTime) {
		t.Fatalf("4 MDSes (%v) should be well faster than 1 (%v)", multiTime, singleTime)
	}
}

func TestApplyBatchMixedOps(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	if _, err := cl.Create(0, "/w/old", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, "/w/resize", 0o644); err != nil {
		t.Fatal(err)
	}
	newStat := fsapi.NewFileStat(appCred, 0o600)
	newStat.Size = 999
	ops := []fsapi.BatchOp{
		{Kind: fsapi.BatchCreate, Path: "/w/new", Stat: fsapi.NewFileStat(appCred, 0o644)},
		{Kind: fsapi.BatchMkdir, Path: "/w/dir", Stat: fsapi.NewDirStat(appCred, 0o755)},
		{Kind: fsapi.BatchSetStat, Path: "/w/resize", Stat: newStat},
		{Kind: fsapi.BatchRemove, Path: "/w/old"},
	}
	errs, _, err := cl.ApplyBatch(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d: %v", i, e)
		}
	}
	if st, _, err := cl.Stat(0, "/w/new"); err != nil || st.Type != fsapi.TypeFile {
		t.Fatalf("new: %+v, %v", st, err)
	}
	if st, _, err := cl.Stat(0, "/w/dir"); err != nil || !st.IsDir() {
		t.Fatalf("dir: %+v, %v", st, err)
	}
	if st, _, err := cl.Stat(0, "/w/resize"); err != nil || st.Size != 999 {
		t.Fatalf("resize: %+v, %v", st, err)
	}
	if _, _, err := cl.Stat(0, "/w/old"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old still present: %v", err)
	}
}

func TestApplyBatchPerOpErrors(t *testing.T) {
	c := testCluster(t)
	cl := appClient(t, c)
	if _, err := cl.Create(0, "/w/dup", 0o644); err != nil {
		t.Fatal(err)
	}
	ops := []fsapi.BatchOp{
		{Kind: fsapi.BatchCreate, Path: "/w/dup", Stat: fsapi.NewFileStat(appCred, 0o644)},
		{Kind: fsapi.BatchRemove, Path: "/w/ghost"},
		{Kind: fsapi.BatchRemove, Path: "/w/ghost2", IfExists: true},
		{Kind: fsapi.BatchCreate, Path: "/w/ok", Stat: fsapi.NewFileStat(appCred, 0o644)},
	}
	errs, _, err := cl.ApplyBatch(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[0], fsapi.ErrExist) {
		t.Fatalf("dup create = %v, want ErrExist", errs[0])
	}
	if !errors.Is(errs[1], fsapi.ErrNotExist) {
		t.Fatalf("ghost remove = %v, want ErrNotExist", errs[1])
	}
	if errs[2] != nil {
		t.Fatalf("IfExists remove of absent path = %v, want nil", errs[2])
	}
	if errs[3] != nil {
		t.Fatalf("independent create = %v, want nil (batch survives sibling failures)", errs[3])
	}
	if _, _, err := cl.Stat(0, "/w/ok"); err != nil {
		t.Fatalf("ok not created: %v", err)
	}
}

func TestApplyBatchGroupsAcrossMDSes(t *testing.T) {
	net := rpc.NewBus()
	c := NewClusterSharded(net, vclock.Default(), rootCred, "node0", 2, []string{"/w"}, nil)
	root := c.NewClient("node0", rootCred, 0, 0)
	if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 64, vclock.Duration(1<<50))
	// Warm the ancestor cache so the batch itself is pure mutation RPCs.
	if _, _, err := cl.Stat(0, "/w"); err != nil {
		t.Fatal(err)
	}
	sent := countCalls(c)
	ops := make([]fsapi.BatchOp, 8)
	for i := range ops {
		ops[i] = fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: fmt.Sprintf("/w/f%d", i), Stat: fsapi.NewFileStat(appCred, 0o644)}
	}
	errs, _, err := cl.ApplyBatch(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d: %v", i, e)
		}
	}
	rpcs := sent.total()
	if rpcs > 2 {
		t.Fatalf("8 ops over 2 MDSes took %d RPCs, want at most one per MDS", rpcs)
	}
	for i := range ops {
		if _, _, err := cl.Stat(0, ops[i].Path); err != nil {
			t.Fatalf("f%d missing: %v", i, err)
		}
	}
}

// TestApplyBatchKeepsLiveShardsAnswers: a shard whose round trip fails
// costs a batch that shard's ops and no others — each of them carries the
// error in its own slot, the live shard's results stand, and there is no
// batch-level error to discard them over. A batch of one reports a dead
// shard the same way.
func TestApplyBatchKeepsLiveShardsAnswers(t *testing.T) {
	c := NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "node0", 2, []string{"/w"}, nil)
	if _, err := c.NewClient("node0", rootCred, 0, 0).Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 64, vclock.Duration(1<<50))
	// With /w's dentry cached the dead shard is met by the batch itself,
	// not by an op's ancestor resolution.
	if _, _, err := cl.Stat(0, "/w"); err != nil {
		t.Fatal(err)
	}
	ops := make([]fsapi.BatchOp, 8)
	for i := range ops {
		ops[i] = fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: fmt.Sprintf("/w/f%d", i), Stat: fsapi.NewFileStat(appCred, 0o644)}
	}
	c.KillShard(1)
	errs, _, err := cl.ApplyBatch(0, ops)
	if err != nil {
		t.Fatalf("batch-level error %v, want the dead shard's share reported per op", err)
	}
	var live, dead int
	for i, op := range ops {
		if c.Shards.Owner(op.Path) == 0 {
			live++
			if errs[i] != nil || !c.OracleExists(op.Path) {
				t.Fatalf("%s on the live shard: %v, exists %v", op.Path, errs[i], c.OracleExists(op.Path))
			}
			continue
		}
		dead++
		if !errors.Is(errs[i], fsapi.ErrClosed) || c.OracleExists(op.Path) {
			t.Fatalf("%s on the dead shard: %v, exists %v; want ErrClosed", op.Path, errs[i], c.OracleExists(op.Path))
		}
		one, _, err := cl.ApplyBatch(0, ops[i:i+1])
		if err != nil || len(one) != 1 || !errors.Is(one[0], fsapi.ErrClosed) {
			t.Fatalf("%s alone to the dead shard: %v, %v; want one ErrClosed result", op.Path, one, err)
		}
	}
	if live == 0 || dead == 0 {
		t.Fatalf("batch did not span both shards: %d live, %d dead", live, dead)
	}
}

// TestStatBatchKeepsLiveShardsAnswers is the same rule for reads: a shard
// whose round trip fails is that error on each of its own paths, the live
// shard's stats stand, and there is no batch-level error to discard them
// over.
func TestStatBatchKeepsLiveShardsAnswers(t *testing.T) {
	c := NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "node0", 2, []string{"/w"}, nil)
	if _, err := c.NewClient("node0", rootCred, 0, 0).Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 64, vclock.Duration(1<<50))
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/f%d", i)
		if _, err := cl.Create(0, paths[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The creates cached /w: the dead shard is met by the batch itself,
	// not by a path's ancestor resolution.
	c.KillShard(1)
	res, _, err := cl.StatBatch(0, paths)
	if err != nil {
		t.Fatalf("batch-level error %v, want the dead shard's share reported per path", err)
	}
	if len(res) != len(paths) {
		t.Fatalf("%d results for %d paths", len(res), len(paths))
	}
	var live, dead int
	for i, p := range paths {
		if c.Shards.Owner(p) == 0 {
			live++
			if res[i].Err != nil || res[i].Stat.Type != fsapi.TypeFile {
				t.Fatalf("%s on the live shard: %+v", p, res[i])
			}
			continue
		}
		dead++
		if !errors.Is(res[i].Err, fsapi.ErrClosed) {
			t.Fatalf("%s on the dead shard: %+v; want ErrClosed", p, res[i])
		}
	}
	if live == 0 || dead == 0 {
		t.Fatalf("batch did not span both shards: %d live, %d dead", live, dead)
	}
}
