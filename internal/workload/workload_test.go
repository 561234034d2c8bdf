package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/indexfs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

var (
	rootCred = fsapi.Cred{}
	appCred  = fsapi.Cred{UID: 1000, GID: 1000}
)

// Interface conformance: all three systems drive through one workload.
var (
	_ Client     = (*dfs.Client)(nil)
	_ FileClient = (*dfs.Client)(nil)
	_ Client     = (*indexfs.Client)(nil)
	_ Client     = (*core.Client)(nil)
	_ FileClient = (*core.Client)(nil)
)

type testEnv struct {
	bus     *rpc.Bus
	cluster *dfs.Cluster
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	bus := rpc.NewBus()
	cluster := dfs.NewCluster(bus, vclock.Default(), rootCred, "storage0", []string{"s1", "s2", "s3"})
	admin := cluster.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	return &testEnv{bus: bus, cluster: cluster}
}

func (e *testEnv) dfsClients(n int) []Client {
	out := make([]Client, n)
	for i := range out {
		out[i] = e.cluster.NewClient(fmt.Sprintf("node%d", i%4), appCred, 0, 0)
	}
	return out
}

func (e *testEnv) paconRegion(t *testing.T, nodes []string) *core.Region {
	t.Helper()
	region, err := core.NewRegion(core.RegionConfig{
		Name: "app", Workspace: "/w", Nodes: nodes, Cred: appCred, Model: vclock.Default(),
	}, core.Deps{
		Bus: e.bus,
		NewBackend: func(node string) core.Backend {
			return e.cluster.NewClient(node, appCred, 4096, time.Hour)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { region.Close() })
	return region
}

func TestMdtestPhasesOnDFS(t *testing.T) {
	e := newTestEnv(t)
	md := NewMdtest(e.dfsClients(8), "/w", 20, 1)

	mk, err := md.MkdirPhase()
	if err != nil {
		t.Fatal(err)
	}
	if mk.Ops != 160 || mk.OPS() <= 0 {
		t.Fatalf("mkdir result = %+v", mk)
	}
	mkEnd := md.runner.Now()
	cr, err := md.CreatePhase()
	if err != nil {
		t.Fatal(err)
	}
	if md.runner.Now() != mkEnd.Add(cr.Elapsed) {
		t.Fatal("phases must be barrier-separated")
	}
	st, err := md.StatPhase()
	if err != nil {
		t.Fatal(err)
	}
	// Reads are cheaper than writes on the MDS.
	if st.OPS() <= cr.OPS() {
		t.Fatalf("stat OPS %.0f should exceed create OPS %.0f", st.OPS(), cr.OPS())
	}
	rm, err := md.RemovePhase()
	if err != nil {
		t.Fatal(err)
	}
	if rm.Ops != 160 {
		t.Fatalf("remove ops = %d", rm.Ops)
	}
	// Everything removed: the parent lists only the mkdir-phase dirs.
	ents, _, err := e.cluster.NewClient("v", appCred, 0, 0).Readdir(md.runner.Now(), "/w")
	if err != nil || len(ents) != 160 {
		t.Fatalf("post-remove listing = %d, %v", len(ents), err)
	}
}

func TestMdtestOnPacon(t *testing.T) {
	e := newTestEnv(t)
	nodes := []string{"node0", "node1"}
	region := e.paconRegion(t, nodes)
	clients := make([]Client, 8)
	for i := range clients {
		c, err := region.NewClient(nodes[i%len(nodes)])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	md := NewMdtest(clients, "/w", 25, 42)
	cr, err := md.CreatePhase()
	if err != nil {
		t.Fatal(err)
	}
	st, err := md.StatPhase()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != 200 || st.Ops != 200 {
		t.Fatalf("ops: %d, %d", cr.Ops, st.Ops)
	}
	// Everything lands on the DFS after a drain.
	if _, err := region.Drain(md.runner.Now()); err != nil {
		t.Fatal(err)
	}
	got := -1 // the root
	e.cluster.MDS.Tree().Walk("/", func(string, uint64, fsapi.Stat) error { got++; return nil })
	if got != 201 { // /w + 200 files
		t.Fatalf("DFS object count = %d", got)
	}
}

func TestMdtestTreeAndLeafStats(t *testing.T) {
	e := newTestEnv(t)
	md := NewMdtest(e.dfsClients(4), "/w", 10, 3)
	leaves, err := md.BuildTree(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 27 {
		t.Fatalf("leaves = %d, want 27", len(leaves))
	}
	res, err := md.StatLeavesPhase(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 40 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

func TestDeeperTreeIsSlowerOnDFS(t *testing.T) {
	ops := func(depth int) float64 {
		e := newTestEnv(t)
		md := NewMdtest(e.dfsClients(8), "/w", 30, 5)
		leaves, err := md.BuildTree(3, depth)
		if err != nil {
			t.Fatal(err)
		}
		res, err := md.StatLeavesPhase(leaves)
		if err != nil {
			t.Fatal(err)
		}
		return res.OPS()
	}
	shallow, deep := ops(2), ops(5)
	if deep >= shallow {
		t.Fatalf("depth-5 stat (%.0f OPS) should be slower than depth-2 (%.0f OPS)", deep, shallow)
	}
}

func TestMdtestErrorPropagates(t *testing.T) {
	e := newTestEnv(t)
	md := NewMdtest(e.dfsClients(2), "/does-not-exist", 5, 1)
	if _, err := md.CreatePhase(); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestMADbenchOnDFS(t *testing.T) {
	e := newTestEnv(t)
	clients := make([]FileClient, 8)
	for i := range clients {
		clients[i] = e.cluster.NewClient(fmt.Sprintf("node%d", i%4), appCred, 0, 0)
	}
	mb := NewMADbench(clients, "/w", 1<<20, 2, 10*time.Millisecond)
	res, err := mb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Init <= 0 || res.Read <= 0 || res.Write <= 0 {
		t.Fatalf("breakdown = %+v", res)
	}
	// 2 compute phases per iteration × 2 iterations × 10ms.
	if res.Other != 40*time.Millisecond {
		t.Fatalf("other = %v", res.Other)
	}
	if res.Total() != res.Init+res.Read+res.Write+res.Other {
		t.Fatal("total mismatch")
	}
	// Data really exists: spot-check one file's size.
	st, _, err := e.cluster.NewClient("v", appCred, 0, 0).Stat(vclock.Time(1<<50), "/w/component.3.dat")
	if err != nil || st.Size != 1<<20 {
		t.Fatalf("component file = %+v, %v", st, err)
	}
}

func TestMADbenchOnPacon(t *testing.T) {
	e := newTestEnv(t)
	nodes := []string{"node0", "node1"}
	region := e.paconRegion(t, nodes)
	clients := make([]FileClient, 4)
	for i := range clients {
		c, err := region.NewClient(nodes[i%2])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	// 1 MB files exceed the 4 KB threshold: data redirects to the DFS,
	// so read/write costs match the DFS while init (creates) is cheap.
	mb := NewMADbench(clients, "/w", 1<<20, 1, 10*time.Millisecond)
	res, err := mb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Init >= res.Write {
		t.Fatalf("init (%v) should be far below a data phase (%v)", res.Init, res.Write)
	}
}
