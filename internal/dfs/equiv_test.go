package dfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// dumpTree renders a namespace tree without its wall-clock stamps.
func dumpTree(t *testing.T, m *MDS) string {
	t.Helper()
	var sb strings.Builder
	err := m.Tree().Walk("/", func(p string, _ uint64, st fsapi.Stat) error {
		fmt.Fprintf(&sb, "%s type=%d mode=%o uid=%d gid=%d size=%d\n", p, st.Type, st.Mode, st.UID, st.GID, st.Size)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestOneShardMapIsASingleMDS pins the routing collapse: there is no
// single-MDS code path any more, only a one-shard map, so one script of
// every client operation run against NewCluster and against
// NewClusterSharded(…, 1, …) — spread root and all — must leave the same
// tree and the same MDS counters and finish at the same virtual time,
// with every step answering alike on the way.
func TestOneShardMapIsASingleMDS(t *testing.T) {
	type outcome struct {
		trace string
		tree  string
		stats MDSStats
		done  vclock.Time
	}
	script := func(c *Cluster) outcome {
		var trace strings.Builder
		now := vclock.Time(0)
		step := func(name string, done vclock.Time, err error, detail ...any) {
			now = done
			fmt.Fprintf(&trace, "%s: %v %v\n", name, fsapi.CodeOf(err), detail)
		}
		root := c.NewClient("node0", rootCred, 0, 0)
		done, err := root.Mkdir(now, "/w", 0o777)
		step("mkdir /w", done, err)
		cl := c.NewClient("node1", appCred, 64, time.Hour)
		for _, d := range []string{"/w/a", "/w/a/sub", "/w/b"} {
			done, err = cl.Mkdir(now, d, 0o755)
			step("mkdir "+d, done, err)
		}
		for _, f := range []string{"/w/a/f1", "/w/a/sub/f2", "/w/b/f3"} {
			done, err = cl.Create(now, f, 0o644)
			step("create "+f, done, err)
		}
		sized := fsapi.Stat{Type: fsapi.TypeFile, Mode: 0o600, UID: appCred.UID, GID: appCred.GID, Size: 4096, Nlink: 1}
		done, err = cl.SetStat(now, "/w/a/f1", sized)
		step("setstat", done, err)
		st, done, err := cl.Stat(now, "/w/a/f1")
		step("stat", done, err, st.Size, st.Mode)
		ents, done, err := cl.Readdir(now, "/w/a")
		step("readdir", done, err, ents)
		done, err = cl.Rename(now, "/w/b/f3", "/w/b/f4")
		step("rename file", done, err)
		done, err = cl.Rename(now, "/w/a", "/w/c")
		step("rename subtree", done, err)
		done, err = cl.Remove(now, "/w/b/f4")
		step("remove", done, err)
		done, err = cl.Rmdir(now, "/w/c")
		step("rmdir non-empty", done, err)
		done, err = cl.Rmdir(now, "/w/b")
		step("rmdir", done, err)
		removed, done, err := cl.RmTree(now, "/w/c/sub")
		step("rmtree", done, err, removed)
		_, done, err = cl.RmTree(now, "/w/nothing")
		step("rmtree missing", done, err)
		errs, done, err := cl.ApplyBatch(now, []fsapi.BatchOp{
			{Kind: fsapi.BatchCreate, Path: "/w/c/f1", Stat: sized}, // exists
			{Kind: fsapi.BatchMkdir, Path: "/w/d", Stat: fsapi.Stat{Type: fsapi.TypeDir, Mode: 0o755, UID: appCred.UID, GID: appCred.GID, Nlink: 2}},
			{Kind: fsapi.BatchCreate, Path: "/w/ghost/f", Stat: sized},     // parent missing: fails resolving
			{Kind: fsapi.BatchRemove, Path: "/w/c/absent", IfExists: true}, // net absence
			{Kind: fsapi.BatchRemove, Path: "/w/c/absent"},                 // plain remove of nothing
			{Kind: fsapi.BatchSetStat, Path: "/w/c/f1", Stat: fsapi.Stat{Type: fsapi.TypeFile, Mode: 0o640, UID: appCred.UID, GID: appCred.GID, Size: 7, Nlink: 1}},
		})
		codes := make([]uint8, len(errs))
		for i, e := range errs {
			codes[i] = fsapi.CodeOf(e)
		}
		step("apply_batch", done, err, codes)
		res, done, err := cl.StatBatch(now, []string{"/w/c/f1", "/w/missing", "/w/d"})
		sizes := make([]string, len(res))
		for i, r := range res {
			sizes[i] = fmt.Sprint(fsapi.CodeOf(r.Err), r.Stat.Size, r.Stat.Type)
		}
		step("stat_batch", done, err, sizes)
		// /w is a spread root on the sharded side, which a map of several
		// shards would refuse to move.
		done, err = root.Rename(now, "/w", "/x")
		step("rename a spread root", done, err)
		return outcome{trace: trace.String(), tree: dumpTree(t, c.MDS), stats: c.MDS.Stats(), done: now}
	}
	single := script(NewCluster(rpc.NewBus(), vclock.Default(), rootCred, "storage0", []string{"s1"}))
	sharded := script(NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "storage0", 1, []string{"/w"}, []string{"s1"}))
	if single.trace != sharded.trace {
		t.Fatalf("the script answered differently:\n--- NewCluster\n%s--- NewClusterSharded(1)\n%s", single.trace, sharded.trace)
	}
	if single.tree != sharded.tree {
		t.Fatalf("trees differ:\n--- NewCluster\n%s--- NewClusterSharded(1)\n%s", single.tree, sharded.tree)
	}
	if single.stats != sharded.stats || single.done != sharded.done {
		t.Fatalf("NewCluster served %+v and finished at %v; NewClusterSharded(1) %+v at %v", single.stats, single.done, sharded.stats, sharded.done)
	}
	// The script must have exercised what it claims to.
	for _, want := range []string{"rename subtree: 0", "rename a spread root: 0", "rmdir non-empty: " + fmt.Sprint(fsapi.CodeNotEmpty),
		"rmtree missing: " + fmt.Sprint(fsapi.CodeNotExist), fmt.Sprint([]uint8{fsapi.CodeExist, 0, fsapi.CodeNotExist, 0, fsapi.CodeNotExist, 0})} {
		if !strings.Contains(single.trace, want) {
			t.Fatalf("script trace lacks %q:\n%s", want, single.trace)
		}
	}
}

// TestSingletonIsAOneOpBatch pins the mutation collapse: Mkdir, Create,
// CreateWithStat, SetStat, Remove and Rmdir have no endpoints of their
// own any more, and as a batch of one each must still be what its
// endpoint was — one round trip, one MDSWriteCost of service time, one
// more in Writes, and the same sentinel for every way the MDS says no.
func TestSingletonIsAOneOpBatch(t *testing.T) {
	model := vclock.Default()
	c := NewCluster(rpc.NewBus(), model, rootCred, "storage0", nil)
	root := c.NewClient("admin", rootCred, 0, 0)
	for _, d := range []struct {
		p    string
		mode fsapi.Mode
	}{{"/w", 0o777}, {"/ro", 0o755}, {"/w/busy", 0o777}, {"/w/full", 0o777}, {"/w/full/x", 0o777}, {"/w/gone", 0o777}, {"/w/d", 0o777}} {
		if _, err := root.Mkdir(0, d.p, d.mode); err != nil {
			t.Fatal(err)
		}
	}
	// A commit-module-shaped client: every ancestor below is a dentry
	// hit, so a call is the mutation's round trip and nothing else —
	// and /w/gone stays "known" after root removes it behind its back,
	// which is the only way a create reaches the MDS's own ENOENT.
	cl := c.NewClient("node0", appCred, 64, time.Hour)
	for _, p := range []string{"/w/busy/x", "/ro/x", "/w/full/x/y", "/w/gone/x", "/w/d/x"} {
		if _, _, err := cl.Stat(0, p); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatal(err)
		}
	}
	if _, err := root.Rmdir(0, "/w/gone"); err != nil {
		t.Fatal(err)
	}
	if err := c.MDS.putIntent("rename", "/w/busy", 900); err != nil {
		t.Fatal(err)
	}
	file := fsapi.NewFileStat(appCred, 0o644)
	dir := fsapi.NewDirStat(appCred, 0o755)
	at := vclock.Time(time.Second) // the MDS is idle by then: no queueing
	cases := []struct {
		name string
		call func() (vclock.Time, error)
		want error
	}{
		{"mkdir", func() (vclock.Time, error) { return cl.Mkdir(at, "/w/d/m", 0o755) }, nil},
		{"mkdir EEXIST", func() (vclock.Time, error) { return cl.Mkdir(at, "/w/d/m", 0o755) }, fsapi.ErrExist},
		{"create", func() (vclock.Time, error) { return cl.Create(at, "/w/d/f", 0o644) }, nil},
		{"create EEXIST", func() (vclock.Time, error) { return cl.Create(at, "/w/d/f", 0o644) }, fsapi.ErrExist},
		{"create ENOENT parent", func() (vclock.Time, error) { return cl.Create(at, "/w/gone/x", 0o644) }, fsapi.ErrNotExist},
		{"create EACCES", func() (vclock.Time, error) { return cl.Create(at, "/ro/x", 0o644) }, fsapi.ErrPermission},
		{"create under an intent", func() (vclock.Time, error) { return cl.Create(at, "/w/busy/x", 0o644) }, fsapi.ErrStale},
		{"create-with-stat file", func() (vclock.Time, error) { return cl.CreateWithStat(at, "/w/d/g", file) }, nil},
		{"create-with-stat dir", func() (vclock.Time, error) { return cl.CreateWithStat(at, "/w/d/sub", dir) }, nil},
		{"create-with-stat EEXIST", func() (vclock.Time, error) { return cl.CreateWithStat(at, "/w/d/sub", dir) }, fsapi.ErrExist},
		{"setstat", func() (vclock.Time, error) { return cl.SetStat(at, "/w/d/g", file) }, nil},
		{"setstat ENOENT", func() (vclock.Time, error) { return cl.SetStat(at, "/w/d/none", file) }, fsapi.ErrNotExist},
		{"setstat under an intent", func() (vclock.Time, error) { return cl.SetStat(at, "/w/busy", dir) }, fsapi.ErrStale},
		{"remove", func() (vclock.Time, error) { return cl.Remove(at, "/w/d/g") }, nil},
		{"remove ENOENT", func() (vclock.Time, error) { return cl.Remove(at, "/w/d/g") }, fsapi.ErrNotExist},
		{"remove EACCES", func() (vclock.Time, error) { return cl.Remove(at, "/ro/x") }, fsapi.ErrPermission},
		{"remove a directory", func() (vclock.Time, error) { return cl.Remove(at, "/w/d/m") }, fsapi.ErrIsDir},
		{"rmdir", func() (vclock.Time, error) { return cl.Rmdir(at, "/w/d/sub") }, nil},
		{"rmdir ENOENT", func() (vclock.Time, error) { return cl.Rmdir(at, "/w/d/sub") }, fsapi.ErrNotExist},
		{"rmdir ENOTEMPTY", func() (vclock.Time, error) { return cl.Rmdir(at, "/w/full") }, fsapi.ErrNotEmpty},
		{"rmdir a file", func() (vclock.Time, error) { return cl.Rmdir(at, "/w/d/f") }, fsapi.ErrNotDir},
		{"rmdir under an intent", func() (vclock.Time, error) { return cl.Rmdir(at, "/w/busy") }, fsapi.ErrStale},
	}
	sent := countCalls(c)
	for _, tc := range cases {
		at += vclock.Time(time.Second)
		calls, writes, busy := sent.total(), c.MDS.Stats().Writes, c.MDS.Resource().BusyTime()
		done, err := tc.call()
		if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
			t.Fatalf("%s = %v, want %v", tc.name, err, tc.want)
		}
		if n := sent.total() - calls; n != 1 {
			t.Fatalf("%s made %d round trips, want 1", tc.name, n)
		}
		if n := c.MDS.Stats().Writes - writes; n != 1 {
			t.Fatalf("%s bumped Writes by %d, want 1", tc.name, n)
		}
		if d := c.MDS.Resource().BusyTime() - busy; d != model.MDSWriteCost {
			t.Fatalf("%s held an MDS worker for %v, want one MDSWriteCost (%v)", tc.name, d, model.MDSWriteCost)
		}
		// One round trip plus the service time, plus the frames' few
		// dozen bytes of transfer.
		if d, floor := done.Sub(at), model.RTT(false)+model.MDSWriteCost; d < floor || d > floor+time.Microsecond {
			t.Fatalf("%s took %v of virtual time, want %v and a frame's transfer", tc.name, d, floor)
		}
	}
}
