package indexfs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

var appCred = fsapi.Cred{UID: 1000, GID: 1000}

func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	return NewCluster(rpc.NewBus(), vclock.Default(), names, ClusterConfig{})
}

// lookupCounter counts the "lookup" RPCs a cluster's servers answer: the
// path components no client lease spared.
type lookupCounter struct{ n atomic.Int64 }

func (l *lookupCounter) ObserveRPC(_, method string, _ time.Duration, _ error) {
	if method == "lookup" {
		l.n.Add(1)
	}
}

func countLookups(c *Cluster) *atomic.Int64 {
	l := new(lookupCounter)
	c.Net.(*rpc.Bus).SetObserver(l)
	return &l.n
}

func TestMkdirCreateStat(t *testing.T) {
	c := testCluster(t, 4)
	cl := c.NewClient("node0", appCred, 1024, false)
	if _, err := cl.Mkdir(0, "/w", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mkdir(0, "/w/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, "/w/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := cl.Stat(0, "/w/d/f")
	if err != nil || st.Type != fsapi.TypeFile {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	st, _, err = cl.Stat(0, "/")
	if err != nil || !st.IsDir() {
		t.Fatalf("root stat = %v", err)
	}
}

func TestNamespaceConventions(t *testing.T) {
	c := testCluster(t, 2)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/w", 0o755)
	cl.Create(0, "/w/f", 0o644)
	if _, err := cl.Create(0, "/w/f", 0o644); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("dup create = %v", err)
	}
	if _, err := cl.Create(0, "/ghost/f", 0o644); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("orphan create = %v", err)
	}
	if _, err := cl.Remove(0, "/w/ghost"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("remove missing = %v", err)
	}
	if _, err := cl.Remove(0, "/w/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("remove missing dir = %v", err)
	}
}

func TestCrossClientVisibility(t *testing.T) {
	c := testCluster(t, 4)
	a := c.NewClient("node0", appCred, 1024, false)
	b := c.NewClient("node3", appCred, 1024, false)
	a.Mkdir(0, "/w", 0o755)
	a.Create(0, "/w/shared", 0o644)
	// IndexFS is a centralized (if partitioned) service: other clients
	// see writes immediately.
	if _, _, err := b.Stat(0, "/w/shared"); err != nil {
		t.Fatalf("cross-client stat = %v", err)
	}
}

func TestDirectoriesPartitionAcrossServers(t *testing.T) {
	c := testCluster(t, 4)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/w", 0o755)
	for i := 0; i < 32; i++ {
		if _, err := cl.Mkdir(0, fmt.Sprintf("/w/d%02d", i), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Create(0, fmt.Sprintf("/w/d%02d/f", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The created subdirectories' files should spread across servers.
	busy := 0
	for _, s := range c.Servers {
		if _, rows := s.rows.dump(); rows > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Fatalf("only %d of 4 servers received inserts", busy)
	}
}

func TestReaddir(t *testing.T) {
	c := testCluster(t, 2)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/w", 0o755)
	cl.Create(0, "/w/b", 0o644)
	cl.Mkdir(0, "/w/a", 0o755)
	ents, _, err := cl.Readdir(0, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "a" || ents[0].Type != fsapi.TypeDir || ents[1].Name != "b" {
		t.Fatalf("readdir = %v", ents)
	}
	// Empty dir lists empty.
	ents, _, err = cl.Readdir(0, "/w/a")
	if err != nil || len(ents) != 0 {
		t.Fatalf("empty readdir = %v, %v", ents, err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	c := testCluster(t, 3)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/w", 0o755)
	cl.Mkdir(0, "/w/d", 0o755)
	cl.Create(0, "/w/d/f", 0o644)
	if _, err := cl.Rmdir(0, "/w/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if _, err := cl.Remove(0, "/w/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rmdir(0, "/w/d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Stat(0, "/w/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("dir still visible after rmdir")
	}
	// Removing a file via Rmdir fails.
	cl.Create(0, "/w/f", 0o644)
	if _, err := cl.Rmdir(0, "/w/f"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("rmdir on file = %v", err)
	}
}

func TestPermissionTraversal(t *testing.T) {
	c := testCluster(t, 2)
	root := c.NewClient("node0", fsapi.Cred{UID: 0, GID: 0}, 0, false)
	root.Mkdir(0, "/locked", 0o700)
	app := c.NewClient("node0", appCred, 0, false)
	if _, err := app.Create(0, "/locked/f", 0o644); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("create under locked dir = %v", err)
	}
}

func TestLeaseCacheCutsLookups(t *testing.T) {
	c := testCluster(t, 2)
	lookups := countLookups(c)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/w", 0o755)
	at := vclock.Time(0)
	var err error
	for i := 0; i < 50; i++ {
		// All creates resolve the same parent; the lease (2ms TTL at
		// these op latencies) keeps traversal local after the first.
		at, err = cl.Create(at, fmt.Sprintf("/w/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := lookups.Load(); got > 5 {
		t.Fatalf("lookup RPCs with leases = %d, want few", got)
	}

	uncached := c.NewClient("node0", appCred, 0, false)
	before := lookups.Load()
	at = 0
	for i := 0; i < 50; i++ {
		at, err = uncached.Create(at, fmt.Sprintf("/w/u%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := lookups.Load() - before; got != 50 {
		t.Fatalf("uncached lookups = %d, want 50", got)
	}
}

func TestLeaseExpiry(t *testing.T) {
	c := testCluster(t, 2)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/w", 0o755)
	cl.Create(0, "/w/f", 0o644)
	lookups := countLookups(c)
	// Far beyond the lease TTL, the same stat must re-fetch.
	cl.Stat(vclock.Time(time.Hour), "/w/f")
	if lookups.Load() == 0 {
		t.Fatal("expired lease did not trigger re-lookup")
	}
}

func TestBulkInsertionMode(t *testing.T) {
	c := testCluster(t, 4)
	setup := c.NewClient("node0", appCred, 1024, false)
	setup.Mkdir(0, "/w", 0o755)

	bulk := c.NewClient("node0", appCred, 1024, true)
	at := vclock.Time(0)
	var err error
	const n = 500
	for i := 0; i < n; i++ {
		at, err = bulk.Create(at, fmt.Sprintf("/w/f%06d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if at, err = bulk.FlushBulk(at); err != nil {
		t.Fatal(err)
	}
	// Every file visible to a normal client afterwards.
	reader := c.NewClient("node1", appCred, 1024, false)
	for i := 0; i < n; i += 37 {
		if _, _, err := reader.Stat(0, fmt.Sprintf("/w/f%06d", i)); err != nil {
			t.Fatalf("bulk file %d invisible: %v", i, err)
		}
	}
	ents, _, err := reader.Readdir(0, "/w")
	if err != nil || len(ents) != n {
		t.Fatalf("readdir after bulk = %d entries, %v", len(ents), err)
	}
}

func TestBulkFasterThanSynchronousInVirtualTime(t *testing.T) {
	// Separate clusters: virtual-time resource schedules persist within
	// a cluster, so the two phases must not share servers.
	const n = 256
	runPhase := func(bulkMode bool) vclock.Time {
		c := testCluster(t, 2)
		setup := c.NewClient("node0", appCred, 1024, false)
		if _, err := setup.Mkdir(0, "/w", 0o755); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient("node0", appCred, 1024, bulkMode)
		at := vclock.Time(0)
		var err error
		for i := 0; i < n; i++ {
			at, err = cl.Create(at, fmt.Sprintf("/w/f%d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
		}
		if bulkMode {
			at, err = cl.FlushBulk(at)
			if err != nil {
				t.Fatal(err)
			}
		}
		return at
	}
	syncTime := runPhase(false)
	bulkTime := runPhase(true)
	if bulkTime*5 >= syncTime {
		t.Fatalf("bulk insertion (%v) should be >5x faster than synchronous (%v)", bulkTime, syncTime)
	}
}

func TestConcurrentClientsSaturateServers(t *testing.T) {
	c := testCluster(t, 4)
	setup := c.NewClient("node0", appCred, 1024, false)
	setup.Mkdir(0, "/w", 0o755)

	const clients = 16
	const per = 50
	var wg sync.WaitGroup
	ends := make([]vclock.Time, clients)
	pacer := vclock.NewPacer(clients, 0)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer pacer.Done(g)
			cl := c.NewClient(fmt.Sprintf("node%d", g%4), appCred, 1024, false)
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
	// A single hot directory is bound by its per-server partition
	// critical sections (GIGA+ dirent contention): aggregate throughput
	// approaches servers/PartitionCost and cannot exceed it.
	horizon := slices.Max(ends).Sub(0)
	ops := float64(clients * per)
	got := ops / horizon.Seconds()
	bound := float64(len(c.Servers)) / vclock.Default().PartitionCost.Seconds()
	if got > 1.05*bound {
		t.Fatalf("single-dir create OPS %.0f exceeds the partition bound %.0f", got, bound)
	}
	if got < 0.6*bound {
		t.Fatalf("single-dir create OPS %.0f far below the partition bound %.0f — wrong bottleneck", got, bound)
	}
}

func TestDeepChainTraversal(t *testing.T) {
	c := testCluster(t, 4)
	cl := c.NewClient("node0", appCred, 1024, false)
	p := ""
	for i := 0; i < 8; i++ {
		p += fmt.Sprintf("/lvl%d", i)
		if _, err := cl.Mkdir(0, p, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	if _, err := cl.Create(0, p+"/leaf", 0o644); err != nil {
		t.Fatal(err)
	}
	// A cold client resolves the whole chain.
	cold := c.NewClient("node3", appCred, 0, false)
	lookups := countLookups(c)
	st, _, err := cold.Stat(0, p+"/leaf")
	if err != nil || st.Type != fsapi.TypeFile {
		t.Fatalf("deep stat = %+v, %v", st, err)
	}
	if got := lookups.Load(); got != 9 { // 8 dirs + leaf
		t.Fatalf("cold lookups = %d, want 9", got)
	}
}

func TestRootReaddir(t *testing.T) {
	c := testCluster(t, 2)
	cl := c.NewClient("node0", appCred, 1024, false)
	cl.Mkdir(0, "/a", 0o755)
	cl.Mkdir(0, "/b", 0o755)
	ents, _, err := cl.Readdir(0, "/")
	if err != nil || len(ents) != 2 {
		t.Fatalf("root readdir = %v, %v", ents, err)
	}
}

// TestRacingCreatesOneWins races eight clients on two nodes creating one
// name, then making one directory: exactly one of each may succeed, the
// rest must see EEXIST. With the existence check and the write as two
// critical sections, a few rounds in 200 let two creates through, and a
// second mkdir overwrote the first's row, orphaning the directory ID its
// client had been handed.
func TestRacingCreatesOneWins(t *testing.T) {
	c := testCluster(t, 2)
	if _, err := c.NewClient("node0", appCred, 1024, false).Mkdir(0, "/w", 0o755); err != nil {
		t.Fatal(err)
	}
	cls := make([]*Client, 8)
	for i := range cls {
		cls[i] = c.NewClient(fmt.Sprintf("node%d", i%2), appCred, 1024, false)
	}
	race := func(p string, op func(cl *Client) error) {
		var wins atomic.Int32
		var start, wg sync.WaitGroup
		start.Add(1)
		for _, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if err := op(cl); err == nil {
					wins.Add(1)
				} else if !errors.Is(err, fsapi.ErrExist) {
					t.Error(err)
				}
			}()
		}
		start.Done()
		wg.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("%d of %d racing calls on %s succeeded, want 1", n, len(cls), p)
		}
	}
	for r := 0; r < 200; r++ {
		f, d := fmt.Sprintf("/w/f%d", r), fmt.Sprintf("/w/d%d", r)
		race(f, func(cl *Client) error { _, err := cl.Create(0, f, 0o644); return err })
		race(d, func(cl *Client) error { _, err := cl.Mkdir(0, d, 0o755); return err })
	}
}

// TestBulkCreateAfterRemove: a bulk-mode create of a name whose row was
// removed is the newest write of that key and must be visible once
// flushed. An LSM store that reads its memtable before a newer
// bulk-ingested table finds the removal's tombstone and answers ENOENT.
func TestBulkCreateAfterRemove(t *testing.T) {
	c := testCluster(t, 2)
	cl := c.NewClient("node0", appCred, 1024, false)
	if _, err := cl.Mkdir(0, "/w", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Create(0, "/w/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Remove(0, "/w/f"); err != nil {
		t.Fatal(err)
	}
	bulk := c.NewClient("node1", appCred, 1024, true)
	if _, err := bulk.Create(0, "/w/f", 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := bulk.FlushBulk(0); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.NewClient("node1", appCred, 0, false).Stat(0, "/w/f")
	if err != nil || st.Type != fsapi.TypeFile || st.Mode != 0o600 {
		t.Fatalf("stat after bulk re-create = %+v, %v", st, err)
	}
}

// TestReaddirRejectsOversizedCount: a readdir reply whose count exceeds
// its bytes is the decoder's error, returned at once, not 2^60 loop
// iterations appending empty entries.
func TestReaddirRejectsOversizedCount(t *testing.T) {
	c := testCluster(t, 1)
	cl := c.NewClient("node0", appCred, 0, false)
	if _, err := cl.Mkdir(0, "/w", 0o755); err != nil {
		t.Fatal(err)
	}
	liar := c.Servers[0].Service()
	liar.HandleInto("readdir", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		reply.Uvarint(1 << 60)
		return at, nil
	})
	c.Net.Register(c.Addrs[0], liar)
	if ents, _, err := cl.Readdir(0, "/w"); !errors.Is(err, wire.ErrTooLong) {
		t.Fatalf("readdir of a lying server = %d entries, %v; want ErrTooLong", len(ents), err)
	}
}
