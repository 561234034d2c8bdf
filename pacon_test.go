package pacon_test

import (
	"errors"
	"fmt"
	"testing"

	"pacon"
	"pacon/internal/dfs"
)

// These tests exercise the library exactly as an external user would —
// through the public API only.

func newSim(t *testing.T, nodes int) *pacon.Simulation {
	t.Helper()
	return pacon.NewSimulation(pacon.SimulationConfig{ClientNodes: nodes})
}

func startRegion(t *testing.T, sim *pacon.Simulation, name, ws string, cred pacon.Cred) *pacon.Region {
	t.Helper()
	sim.MustMkdirAll(ws, 0o777)
	region, err := sim.NewRegion(pacon.RegionConfig{
		Name:      name,
		Workspace: ws,
		Nodes:     sim.Nodes(),
		Cred:      cred,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { region.Close() })
	return region
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	sim := newSim(t, 4)
	cred := pacon.Cred{UID: 1000, GID: 1000}
	region := startRegion(t, sim, "app1", "/proj/app1", cred)

	client, err := region.NewClient(sim.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	now, err := client.Mkdir(0, "/proj/app1/out", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		now, err = client.Create(now, fmt.Sprintf("/proj/app1/out/rank%d.dat", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = client.WriteAt(now, "/proj/app1/out/rank0.dat", 0, []byte("result=42"))
	if err != nil {
		t.Fatal(err)
	}
	data, now, err := client.ReadAt(now, "/proj/app1/out/rank0.dat", 0, 64)
	if err != nil || string(data) != "result=42" {
		t.Fatalf("read = %q, %v", data, err)
	}
	ents, now, err := client.Readdir(now, "/proj/app1/out")
	if err != nil || len(ents) != 10 {
		t.Fatalf("readdir = %d entries, %v", len(ents), err)
	}
	if _, err := region.Drain(now); err != nil {
		t.Fatal(err)
	}
	st := region.Stats()
	if st.Committed == 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicAPIErrorsAreSentinels(t *testing.T) {
	sim := newSim(t, 1)
	cred := pacon.Cred{UID: 1, GID: 1}
	region := startRegion(t, sim, "e", "/w", cred)
	c, _ := region.NewClient("node0")
	c.Create(0, "/w/f", 0o644)
	if _, err := c.Create(0, "/w/f", 0o644); !errors.Is(err, pacon.ErrExist) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Stat(0, "/w/ghost"); !errors.Is(err, pacon.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicAPITwoRegionsMerge(t *testing.T) {
	sim := newSim(t, 4)
	r1 := startRegion(t, sim, "a1", "/proj/a1", pacon.Cred{UID: 1, GID: 1})
	sim.MustMkdirAll("/proj/a2", 0o777)
	r2, err := sim.NewRegion(pacon.RegionConfig{
		Name:      "a2",
		Workspace: "/proj/a2",
		Nodes:     sim.Nodes()[:2],
		Cred:      pacon.Cred{UID: 2, GID: 2},
		Perm:      pacon.PermSpec{Normal: pacon.PermEntry{Mode: 0o755, UID: 2, GID: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	c2, _ := r2.NewClient("node0")
	now, err := c2.Create(0, "/proj/a2/data", 0o644)
	if err != nil {
		t.Fatal(err)
	}

	r1.Merge(r2)
	c1, _ := r1.NewClient("node0")
	if _, _, err := c1.Stat(now, "/proj/a2/data"); err != nil {
		t.Fatalf("merged read = %v", err)
	}
	if _, err := c1.Create(now, "/proj/a2/nope", 0o644); !errors.Is(err, pacon.ErrReadOnly) {
		t.Fatalf("merged write = %v", err)
	}
}

func TestPublicAPIDefaultModelSane(t *testing.T) {
	m := pacon.DefaultModel()
	if m.CacheOpCost <= 0 || m.MDSWriteCost <= m.MDSReadCost {
		t.Fatalf("model = %+v", m)
	}
}

func TestSimulationProvisioning(t *testing.T) {
	sim := newSim(t, 2)
	sim.MustMkdirAll("/a/b/c/d", 0o777)
	admin := sim.AdminClient()
	if _, _, err := admin.Stat(0, "/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	sim.MustMkdirAll("/a/b/c/d", 0o777)
}

// TestSimulationStartsIdle pins the checkpoint area's off-clock format:
// a fresh simulation has served no metadata request on any shard, yet
// /.pacon is there, world-writable and the administrator's, and a
// region's checkpoint and restore go through it.
func TestSimulationStartsIdle(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			adminCred := pacon.Cred{UID: 7, GID: 70}
			sim := pacon.NewSimulation(pacon.SimulationConfig{
				ClientNodes: 2,
				AdminCred:   adminCred,
				ShardCount:  shards,
				SpreadRoots: []string{"/w"},
			})
			t.Cleanup(sim.Close)
			cluster := sim.DFS()
			if want := max(shards, 1); len(cluster.MDSes) != want {
				t.Fatalf("%d MDSes, want %d", len(cluster.MDSes), want)
			}
			for i, m := range cluster.MDSes {
				if st, busy := m.Stats(), m.Resource().BusyTime(); st != (dfs.MDSStats{}) || busy != 0 {
					t.Fatalf("MDS %d served %+v (busy %v) before any client", i, st, busy)
				}
			}
			st, err := cluster.OracleLookup("/.pacon")
			if err != nil {
				t.Fatal(err)
			}
			if !st.IsDir() || st.Mode != 0o777 || st.UID != adminCred.UID || st.GID != adminCred.GID {
				t.Fatalf("/.pacon = %+v", st)
			}

			region := startRegion(t, sim, "ckpt", "/w", pacon.Cred{UID: 1000, GID: 1000})
			c, err := region.NewClient(sim.Nodes()[0])
			if err != nil {
				t.Fatal(err)
			}
			now, err := c.Create(0, "/w/kept", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			seq, now, err := region.Checkpoint(c, now)
			if err != nil {
				t.Fatal(err)
			}
			if now, err = c.Create(now, "/w/after", 0o644); err != nil {
				t.Fatal(err)
			}
			if now, err = region.Restore(c, now, seq); err != nil {
				t.Fatal(err)
			}
			if _, now, err = c.Stat(now, "/w/kept"); err != nil {
				t.Fatalf("checkpointed file after restore: %v", err)
			}
			if _, _, err = c.Stat(now, "/w/after"); !errors.Is(err, pacon.ErrNotExist) {
				t.Fatalf("post-checkpoint file after restore: %v", err)
			}
		})
	}
}
