package pacon_test

// Full-stack transport-independence test: the complete deployment — the
// BeeGFS-like DFS (MDS + data servers), a Pacon consistent region (cache
// servers, commit queues, commit processes) and its clients — runs over
// real TCP sockets with length-prefixed frames instead of the in-process
// bus. Every RPC in this test crosses the loopback network stack.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

func TestFullStackOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := rpc.NewTCPNetwork()
	defer net.Close()
	model := vclock.Default()

	rootCred := fsapi.Cred{}
	appCred := fsapi.Cred{UID: 1000, GID: 1000}
	cluster := dfs.NewCluster(net, model, rootCred, "storage0", []string{"s1", "s2"})

	admin := cluster.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}

	region, err := core.NewRegion(core.RegionConfig{
		Name:      "tcp",
		Workspace: "/w",
		Nodes:     []string{"node0", "node1"},
		Cred:      appCred,
		Model:     model,
	}, core.Deps{
		Bus: net,
		NewBackend: func(node string) core.Backend {
			return cluster.NewClient(node, appCred, 4096, time.Hour)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer region.Close()

	c0, err := region.NewClient("node0")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := region.NewClient("node1")
	if err != nil {
		t.Fatal(err)
	}

	// Metadata flows over the wire.
	now, err := c0.Mkdir(0, "/w/dir", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if now, err = c0.Create(now, fmt.Sprintf("/w/dir/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-node visibility through the TCP-backed distributed cache.
	st, now, err := c1.Stat(now, "/w/dir/f7")
	if err != nil || st.Type != fsapi.TypeFile {
		t.Fatalf("cross-node stat over TCP: %+v, %v", st, err)
	}

	// Inline data round-trips across nodes.
	payload := []byte("tcp payload")
	if now, err = c0.WriteAt(now, "/w/dir/f0", 0, payload); err != nil {
		t.Fatal(err)
	}
	got, now, err := c1.ReadAt(now, "/w/dir/f0", 0, 64)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("inline read over TCP = %q, %v", got, err)
	}

	// Barrier ops (readdir) coordinate commit processes across sockets.
	ents, now, err := c1.Readdir(now, "/w/dir")
	if err != nil || len(ents) != 20 {
		t.Fatalf("readdir over TCP = %d entries, %v", len(ents), err)
	}

	// rm + barrier drain; DFS agrees afterwards.
	if now, err = c0.Remove(now, "/w/dir/f19"); err != nil {
		t.Fatal(err)
	}
	if _, _, err = c1.Stat(now, "/w/dir/f19"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after rm = %v", err)
	}
	if now, err = region.Drain(now); err != nil {
		t.Fatal(err)
	}
	verify := cluster.NewClient("verify", appCred, 0, 0)
	if _, _, err := verify.Stat(now, "/w/dir/f18"); err != nil {
		t.Fatalf("committed file missing on DFS: %v", err)
	}
	if _, _, err := verify.Stat(now, "/w/dir/f19"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("removed file still on DFS: %v", err)
	}
	if st := region.Stats(); st.Dropped != 0 {
		t.Fatalf("drops over TCP: %+v", st)
	}

	// Simulated node failure = closing that node's listeners.
	net.Unregister("node1/pacon-tcp")
	if _, _, err := c0.Stat(now, "/w/dir/f1"); err == nil {
		// The key may hash to node0's server — that's fine; probe a few.
		miss := false
		for i := 0; i < 20; i++ {
			if _, _, err := c0.Stat(now, fmt.Sprintf("/w/dir/f%d", i)); err != nil {
				miss = true
				break
			}
		}
		if !miss {
			t.Log("all probed keys happened to live on the surviving node")
		}
	}
}

// TestMissLoadsOverTCP drives the cache servers' read-through over real
// sockets: a bounded cache on two nodes, files the DFS alone holds, and
// two clients reading them at once. Every miss sends the owning cache
// server's handler to the MDS over its own connection before it answers,
// and the cache is small enough that loads meet a full server and the
// region runs eviction rounds between them. Every read must come back
// right, and the test must pass under go test -race: the handlers' nested
// calls share the DFS client of their node.
func TestMissLoadsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := rpc.NewTCPNetwork()
	defer net.Close()
	model := vclock.Default()
	appCred := fsapi.Cred{UID: 1000, GID: 1000}
	cluster := dfs.NewCluster(net, model, fsapi.Cred{}, "storage0", []string{"s1"})
	admin := cluster.NewClient("admin", fsapi.Cred{}, 0, 0)
	if _, err := admin.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("/w/d%d", d)
		if _, err := admin.Mkdir(0, dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 40; f++ {
			p := fmt.Sprintf("%s/f%02d", dir, f)
			if _, err := admin.Create(0, p, 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
	}
	region, err := core.NewRegion(core.RegionConfig{
		Name:               "tcpload",
		Workspace:          "/w",
		Nodes:              []string{"node0", "node1"},
		Cred:               appCred,
		CacheCapacityBytes: 4 << 10, // about 30 entries per server, for 160 files
		Model:              model,
	}, core.Deps{
		Bus: net,
		NewBackend: func(node string) core.Backend {
			return cluster.NewClient(node, appCred, 4096, time.Hour)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer region.Close()

	errs := make(chan error, 2)
	for i, node := range []string{"node0", "node1"} {
		c, err := region.NewClient(node)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			errs <- func() error {
				var now vclock.Time
				for round := 0; round < 3; round++ {
					for j := range paths {
						p := paths[(j*7+i*31+round*13)%len(paths)]
						st, done, err := c.Stat(now, p)
						now = done
						if err != nil || st.Type != fsapi.TypeFile {
							return fmt.Errorf("%s: stat %s = %+v, %v", node, p, st, err)
						}
					}
					res, done, err := c.StatMulti(now, paths[i*40:i*40+16])
					now = done
					for k, r := range res {
						if err == nil && (r.Err != nil || r.Stat.Type != fsapi.TypeFile) {
							err = fmt.Errorf("%s: statmulti %s = %+v, %v", node, paths[i*40+k], r.Stat, r.Err)
						}
					}
					if err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st, cs := region.Stats(), region.CacheStats()
	if st.Evictions == 0 || st.EvictedKeys == 0 {
		t.Fatalf("no eviction rounds: %+v", st)
	}
	if cs.Items == 0 || cs.Misses == 0 {
		t.Fatalf("the cache loaded nothing: %+v", cs)
	}
	if st.Dropped != 0 {
		t.Fatalf("drops: %+v", st)
	}
}

func TestTCPNetworkRegisterReplaceAndUnregister(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	net := rpc.NewTCPNetwork()
	defer net.Close()

	mk := func(tag string) *rpc.Service {
		svc := rpc.NewService()
		svc.Handle("who", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
			return at, []byte(tag), nil
		})
		return svc
	}
	net.Register("x/svc", mk("first"))
	caller := rpc.NewCaller(net, vclock.LatencyModel{}, "client")
	_, resp, err := caller.Call("x/svc", "who", 0, nil)
	if err != nil || string(resp) != "first" {
		t.Fatalf("call = %q, %v", resp, err)
	}
	// Re-registering replaces the listener.
	net.Register("x/svc", mk("second"))
	_, resp, err = caller.Call("x/svc", "who", 0, nil)
	if err != nil || string(resp) != "second" {
		t.Fatalf("after replace = %q, %v", resp, err)
	}
	net.Unregister("x/svc")
	if _, _, err := caller.Call("x/svc", "who", 0, nil); err == nil {
		t.Fatal("call after unregister must fail")
	}
}
