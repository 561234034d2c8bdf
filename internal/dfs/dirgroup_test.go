package dfs

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// groupSide is one side of the differential test: a cluster with /w (a
// spread root), the two levels below it and a file at the third; the
// client the batches go through; and an uncached admin client that
// changes the tree behind that client's back.
type groupSide struct {
	c          *Cluster
	app, admin *Client
}

// groupDeploy builds a side. With ttl 0 the client caches no dentries, so
// every batch resolves its ancestors against the tree as the last batch
// left it; with a long ttl it resolves through a cache the admin's
// changes make stale, and ops reach the MDS past ancestors that are gone.
func groupDeploy(t *testing.T, shards int, ttl vclock.Duration) groupSide {
	t.Helper()
	c := NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "storage0", shards, []string{"/w"}, nil)
	s := groupSide{c: c, app: c.NewClient("node0", appCred, 64, ttl), admin: c.NewClient("admin", rootCred, 0, 0)}
	if _, err := s.admin.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/w/a", "/w/b", "/w/a/a", "/w/a/b", "/w/b/a", "/w/b/b"} {
		if _, err := s.app.Mkdir(0, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/w/a/a/a", "/w/b/b/b"} {
		if _, err := s.app.Create(0, f, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// applyInOrder is the reference the grouped ApplyBatch must agree with:
// every op resolved first, as ApplyBatch resolves before it sends (a
// batch's own ops are invisible to its resolution), then each survivor
// sent alone, in batch order, and waited for.
func applyInOrder(cl *Client, ops []fsapi.BatchOp) []error {
	errs := make([]error, len(ops))
	for i := range ops {
		ops[i].Path = namespace.Clean(ops[i].Path)
		_, errs[i] = cl.resolveAncestors(0, ops[i].Path)
	}
	for i := range ops {
		if errs[i] == nil {
			_, errs[i] = cl.mutateOn(cl.targets(ops[i].Path), 0, &ops[i])
		}
	}
	return errs
}

// TestDirGroupsMatchInOrderApply is the directory grouping's safety net.
// Random batches of 2–8 mkdirs, creates, setstats (of files and of
// directories, a chmod that takes write permission away among them),
// removes, net-absence removes and rmdirs over a namespace three levels
// deep under /w go through the grouped ApplyBatch on one deployment and
// op by op, in batch order, on another. Every op must get the same answer
// and every shard's tree must stay the same, on one MDS and on four, with
// an uncached client and with one whose dentries go stale (which is how
// an op reaches the MDS after an ancestor above its parent changed: the
// reason the grouping keeps ancestors with descendants, not only parents
// with children).
func TestDirGroupsMatchInOrderApply(t *testing.T) {
	var paths []string
	for _, a := range []string{"a", "b"} {
		paths = append(paths, "/w/"+a)
		for _, b := range []string{"a", "b"} {
			paths = append(paths, "/w/"+a+"/"+b)
			for _, c := range []string{"a", "b"} {
				paths = append(paths, "/w/"+a+"/"+b+"/"+c)
			}
		}
	}
	stats := []fsapi.Stat{
		fsapi.NewDirStat(appCred, 0o755),
		fsapi.NewDirStat(appCred, 0o555), // no write: creates and removes under it are refused
		fsapi.NewFileStat(appCred, 0o644),
		{Type: fsapi.TypeFile, Mode: 0o600, UID: appCred.UID, GID: appCred.GID, Size: 77, Nlink: 1},
	}
	for _, shards := range []int{1, 4} {
		for _, ttl := range []vclock.Duration{0, time.Hour} {
			t.Run(fmt.Sprintf("shards=%d/ttl=%v", shards, ttl), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(29, uint64(shards)+uint64(ttl)))
				randomOp := func() fsapi.BatchOp {
					op := fsapi.BatchOp{Path: paths[rng.IntN(len(paths))]}
					switch k := rng.IntN(8); k {
					case 0, 1:
						op.Kind, op.Stat = fsapi.BatchMkdir, stats[0]
					case 2, 3:
						op.Kind, op.Stat = fsapi.BatchCreate, stats[2]
					case 4:
						op.Kind, op.Stat = fsapi.BatchSetStat, stats[rng.IntN(len(stats))]
					case 5, 6:
						op.Kind, op.IfExists = fsapi.BatchRemove, k == 6
					default:
						op.Kind = fsapi.BatchRmdir
					}
					return op
				}
				var batches, split, childFirst, dupPath, ok, refused int
				for round := 0; round < 20; round++ {
					grouped, inOrder := groupDeploy(t, shards, ttl), groupDeploy(t, shards, ttl)
					sent := countCalls(grouped.c)
					for b := 0; b < 25; b++ {
						if ttl > 0 && rng.IntN(2) == 0 {
							op := randomOp()
							grouped.admin.ApplyBatch(0, []fsapi.BatchOp{op})
							inOrder.admin.ApplyBatch(0, []fsapi.BatchOp{op})
						}
						ops := make([]fsapi.BatchOp, 2+rng.IntN(7))
						owners := map[int]bool{}
						for i := range ops {
							ops[i] = randomOp()
							owners[grouped.c.Shards.Owner(ops[i].Path)] = true
						}
						for i := range ops {
							for j := i + 1; j < len(ops); j++ {
								dir, _ := namespace.Split(ops[i].Path)
								childFirst += boolInt(dir == ops[j].Path)
								dupPath += boolInt(ops[i].Path == ops[j].Path)
							}
						}
						cl := grouped.app
						before := sent.count("apply_batch")
						gerrs, _, err := cl.ApplyBatch(0, append([]fsapi.BatchOp(nil), ops...))
						if err != nil {
							t.Fatal(err)
						}
						if sent.count("apply_batch")-before > len(owners) {
							split++
						}
						rerrs := applyInOrder(inOrder.app, ops)
						batches++
						for i := range ops {
							if g, r := fsapi.CodeOf(gerrs[i]), fsapi.CodeOf(rerrs[i]); g != r {
								t.Fatalf("round %d batch %d: op %d (%v %s) answered %d grouped, %d in order\nbatch: %+v",
									round, b, i, ops[i].Kind, ops[i].Path, g, r, ops)
							}
							if gerrs[i] == nil {
								ok++
							} else {
								refused++
							}
						}
						for k := range grouped.c.MDSes {
							if g, r := dumpTree(t, grouped.c.MDSes[k]), dumpTree(t, inOrder.c.MDSes[k]); g != r {
								t.Fatalf("round %d batch %d: shard %d's trees differ\nbatch: %+v\n--- grouped\n%s--- in order\n%s",
									round, b, k, ops, g, r)
							}
						}
					}
				}
				t.Logf("%d batches: %d split into several requests on a shard, %d child-before-parent pairs, %d repeated paths; %d ops applied, %d refused",
					batches, split, childFirst, dupPath, ok, refused)
				// The generator must have produced what the test claims to cover.
				for name, n := range map[string]int{"split": split, "child-before-parent": childFirst, "repeated path": dupPath, "applied": ok, "refused": refused} {
					if n < 20 {
						t.Fatalf("only %d %s cases in %d batches", n, name, batches)
					}
				}
			})
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dirGroupCluster is one MDS with /w/a and /w/b, a model that charges no
// transfer time (so a completion is round trip plus service, exactly), and
// a commit-shaped client whose dentries for both directories are warm.
func dirGroupCluster(t *testing.T) (*Cluster, *Client, vclock.LatencyModel) {
	t.Helper()
	model := vclock.Default()
	model.PerKB = 0
	c := NewCluster(rpc.NewBus(), model, rootCred, "storage0", nil)
	root := c.NewClient("admin", rootCred, 0, 0)
	for _, d := range []string{"/w", "/w/a", "/w/b"} {
		if _, err := root.Mkdir(0, d, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient("node0", appCred, 64, time.Hour)
	for _, d := range []string{"/w/a", "/w/b"} {
		if _, _, err := cl.Stat(0, d); err != nil {
			t.Fatal(err)
		}
	}
	return c, cl, model
}

// TestDirGroupsOverlapOnTheMDS: a wave's directory groups leave together
// and the MDS serves them on separate workers, so a wave over two
// directories completes at RTT + its largest group × MDSWriteCost, and a
// wave in one directory, one request, at RTT + n × MDSWriteCost.
func TestDirGroupsOverlapOnTheMDS(t *testing.T) {
	c, cl, model := dirGroupCluster(t)
	file := fsapi.NewFileStat(appCred, 0o644)
	create := func(p string) fsapi.BatchOp { return fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: p, Stat: file} }
	cases := []struct {
		name     string
		ops      []fsapi.BatchOp
		requests int
		largest  int
	}{
		{"two directories", []fsapi.BatchOp{create("/w/a/f0"), create("/w/b/g0"), create("/w/a/f1"), create("/w/b/g1"), create("/w/a/f2")}, 2, 3},
		{"one directory", []fsapi.BatchOp{create("/w/a/h0"), create("/w/a/h1"), create("/w/a/h2"), create("/w/a/h3"), create("/w/a/h4")}, 1, 5},
	}
	at := vclock.Time(0)
	sent := countCalls(c)
	for _, tc := range cases {
		at += vclock.Time(time.Second) // the MDS is idle by then
		calls, writes := sent.total(), c.MDS.Stats().Writes
		errs, done, err := cl.ApplyBatch(at, tc.ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("%s: op %d: %v", tc.name, i, e)
			}
		}
		if n := sent.total() - calls; n != tc.requests {
			t.Fatalf("%s: %d requests, want %d", tc.name, n, tc.requests)
		}
		if n := c.MDS.Stats().Writes - writes; n != int64(len(tc.ops)) {
			t.Fatalf("%s: the MDS applied %d ops, want %d", tc.name, n, len(tc.ops))
		}
		if want := at.Add(model.RTT(false) + vclock.Duration(tc.largest)*model.MDSWriteCost); done != want {
			t.Fatalf("%s completed %v after it left, want RTT + %d × MDSWriteCost = %v",
				tc.name, done.Sub(at), tc.largest, want.Sub(at))
		}
	}
}

// TestChildBeforeParentStaysInItsRequest: a create under /w/a placed
// before the chmod of /w/a that takes write permission away travels in
// the chmod's request, ahead of it, so it lands; a create in /w/b beside
// them is a request of its own. Two requests, the larger of two ops.
func TestChildBeforeParentStaysInItsRequest(t *testing.T) {
	c, cl, model := dirGroupCluster(t)
	ops := []fsapi.BatchOp{
		{Kind: fsapi.BatchCreate, Path: "/w/a/f", Stat: fsapi.NewFileStat(appCred, 0o644)},
		{Kind: fsapi.BatchCreate, Path: "/w/b/g", Stat: fsapi.NewFileStat(appCred, 0o644)},
		{Kind: fsapi.BatchSetStat, Path: "/w/a", Stat: fsapi.NewDirStat(appCred, 0o555)},
	}
	at := vclock.Time(time.Second)
	sent := countCalls(c)
	errs, done, err := cl.ApplyBatch(at, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("op %d (%s): %v", i, ops[i].Path, e)
		}
	}
	if n := sent.total(); n != 2 {
		t.Fatalf("%d requests, want 2: {create /w/a/f, chmod /w/a} and {create /w/b/g}", n)
	}
	if want := at.Add(model.RTT(false) + 2*model.MDSWriteCost); done != want {
		t.Fatalf("completed %v after it left, want RTT + 2 × MDSWriteCost = %v", done.Sub(at), want.Sub(at))
	}
	for _, p := range []string{"/w/a/f", "/w/b/g"} {
		if !c.OracleExists(p) {
			t.Fatalf("%s was not created", p)
		}
	}
	if _, err := cl.Create(at, "/w/a/late", 0o644); fsapi.CodeOf(err) != fsapi.CodePermission {
		t.Fatalf("create under the chmodded /w/a = %v, want EACCES", err)
	}
}

// TestStaleAncestorKeepsItsDescendants: why an op on a directory shares a
// request with every op below it, not only with its children. A client
// whose dentries still hold /w/a and /w/a/b sends creates under /w/a/b
// after /w/a was replaced by a file, and removes that file between them.
// In order the first create meets the file (ENOTDIR) and the second meets
// nothing (ENOENT); sent apart from the remove, both would meet the file.
func TestStaleAncestorKeepsItsDescendants(t *testing.T) {
	c, cl, _ := dirGroupCluster(t)
	admin := c.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w/a/b", 0o777); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Stat(0, "/w/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Rmdir(0, "/w/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Rmdir(0, "/w/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Create(0, "/w/a", 0o666); err != nil {
		t.Fatal(err)
	}
	file := fsapi.NewFileStat(appCred, 0o644)
	errs, _, err := cl.ApplyBatch(vclock.Time(time.Second), []fsapi.BatchOp{
		{Kind: fsapi.BatchCreate, Path: "/w/a/b/f1", Stat: file},
		{Kind: fsapi.BatchRemove, Path: "/w/a"},
		{Kind: fsapi.BatchCreate, Path: "/w/a/b/f2", Stat: file},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{fsapi.CodeNotDir, fsapi.CodeOK, fsapi.CodeNotExist}
	for i, e := range errs {
		if fsapi.CodeOf(e) != want[i] {
			t.Fatalf("op %d = %v, want code %d (in-order answers %v)", i, e, want[i], want)
		}
	}
}
