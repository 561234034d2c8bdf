package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pacon/internal/fsapi"
	"pacon/internal/mq"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// TestEveryTerminalReleasesEverything walks an op to each of its ends —
// with its path written and fsynced first — and asks the node's one table
// afterwards: nothing at risk, nothing parked, no staleness, the path not
// pending, and a barrier scoped to the path's parent skips the node.
func TestEveryTerminalReleasesEverything(t *testing.T) {
	const dir, p = "/w/d", "/w/d/f"
	// acked creates p, writes to it and fsyncs it behind held commit
	// processes: two ops, and nothing more for the fsync.
	acked := func(t *testing.T, c *Client, at vclock.Time, p string) vclock.Time {
		at, err := c.Create(at, p, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if at, err = c.WriteAt(at, p, 0, []byte("bytes")); err != nil {
			t.Fatal(err)
		}
		if at, err = c.Fsync(at, p); err != nil {
			t.Fatal(err)
		}
		return at
	}
	cases := []struct {
		name string
		cfg  func(*RegionConfig)
		path string // p unless set
		// pre runs before the commit processes are held.
		pre func(t *testing.T, e *env, c *Client, at vclock.Time) vclock.Time
		// run takes the acked ops to their end; release lets the commit
		// processes go.
		run func(t *testing.T, e *env, c *Client, at vclock.Time, release func())
		// reached says the end was the one the case names.
		reached func(st RegionStats, byReason map[string]int64) bool
	}{
		{name: "committed", cfg: func(cfg *RegionConfig) { cfg.CommitBatchSize = 1 },
			reached: func(st RegionStats, _ map[string]int64) bool { return st.Committed == 3 && st.Coalesced == 0 }},
		{name: "absorbed by the coalescer",
			reached: func(st RegionStats, _ map[string]int64) bool { return st.Committed == 2 && st.Coalesced == 1 }},
		{name: "annihilated",
			run: func(t *testing.T, e *env, c *Client, at vclock.Time, release func()) {
				at, err := c.Remove(at, p)
				if err != nil {
					t.Fatal(err)
				}
				release()
				if _, err := e.region.Drain(at); err != nil {
					t.Fatal(err)
				}
				if e.dfs.MDS.Tree().Exists(p) {
					t.Fatal("an annihilated create reached the DFS")
				}
			},
			reached: func(st RegionStats, _ map[string]int64) bool { return st.Coalesced == 2 }},
		{name: "discarded",
			run: func(t *testing.T, e *env, c *Client, at vclock.Time, release func()) {
				e.region.addRemoving(dir)
				defer e.region.delRemoving(dir)
				release()
				if _, err := e.region.Drain(at); err != nil {
					t.Fatal(err)
				}
			},
			reached: func(st RegionStats, _ map[string]int64) bool { return st.Discarded == 1 }},
		{name: "dropped/" + dropReasonRetryBudget, path: "/w/nodir/f",
			cfg:     func(cfg *RegionConfig) { cfg.DisableParentCheck, cfg.CommitRetryLimit = true, 2 },
			reached: func(_ RegionStats, by map[string]int64) bool { return by[dropReasonRetryBudget] == 1 }},
		{name: "dropped/" + dropReasonKindConflict,
			pre: func(t *testing.T, e *env, c *Client, at vclock.Time) vclock.Time {
				// The DFS holds a directory under the name, and the cache
				// nothing: the create is accepted, and can never apply.
				admin := e.dfs.NewClient("admin", appCred, 0, 0)
				at, err := admin.Mkdir(at, p, 0o777)
				if err != nil {
					t.Fatal(err)
				}
				return at
			},
			reached: func(_ RegionStats, by map[string]int64) bool { return by[dropReasonKindConflict] == 1 }},
		{name: "dropped/" + dropReasonBackendError, path: "/w/d/file/f",
			cfg: func(cfg *RegionConfig) { cfg.DisableParentCheck = true },
			pre: func(t *testing.T, e *env, c *Client, at vclock.Time) vclock.Time {
				at, err := c.Create(at, "/w/d/file", 0o644) // a file where the path needs a directory
				if err != nil {
					t.Fatal(err)
				}
				return at
			},
			reached: func(_ RegionStats, by map[string]int64) bool { return by[dropReasonBackendError] == 1 }},
		{name: "lost with its node",
			run: func(t *testing.T, e *env, c *Client, at vclock.Time, release func()) {
				defer release()
				if lost := e.region.SimulateNodeFailure("node0"); lost != 2 {
					t.Fatalf("lost %d ops, want the create and the write", lost)
				}
			},
			reached: func(st RegionStats, _ map[string]int64) bool { return st.Committed == 1 }},
	}
	for _, tc := range cases {
		for _, withObs := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/obs=%v", tc.name, withObs), func(t *testing.T) {
				e := newEnvDeps(t, 1, tc.cfg, func(d *Deps) {
					if withObs {
						d.Obs = obs.New()
					}
				})
				r, c := e.region, e.client(t, "node0")
				n := r.byName["node0"]
				at, err := c.Mkdir(0, dir, 0o755)
				if err != nil {
					t.Fatal(err)
				}
				if at, err = r.Drain(at); err != nil {
					t.Fatal(err)
				}
				if tc.pre != nil {
					if at, err = r.Drain(tc.pre(t, e, c, at)); err != nil {
						t.Fatal(err)
					}
				}
				path := p
				if tc.path != "" {
					path = tc.path
				}
				release := holdCommits(t, r)
				at = acked(t, c, at, path)
				if n.inflight.atRisk() != 2 || !r.PathPending(path) || (r.MaxStaleness() > 0) != withObs {
					t.Fatalf("held: at risk %d, pending %v, staleness %d", n.inflight.atRisk(), r.PathPending(path), r.MaxStaleness())
				}
				if tc.run != nil {
					tc.run(t, e, c, at, release)
				} else {
					release()
					if _, err := r.Drain(at); err != nil {
						t.Fatal(err)
					}
				}
				if st := r.Stats(); !tc.reached(st, r.DroppedByReason()) {
					t.Fatalf("not the terminal the case names: %+v %v", st, r.DroppedByReason())
				}
				wantReleased(t, r, n, path)
			})
		}
	}
}

// wantReleased requires that nothing of path, or of anything else, is left
// in n's table.
func wantReleased(t *testing.T, r *Region, n *node, path string) {
	t.Helper()
	if got := n.inflight.atRisk(); got != 0 || r.Health().AtRiskOps != 0 {
		t.Errorf("at-risk ops = %d", got)
	}
	if got := r.parkedOps(); got != 0 {
		t.Errorf("parked_ops = %d", got)
	}
	if got := r.MaxStaleness(); got != 0 {
		t.Errorf("MaxStaleness = %d", got)
	}
	if got := r.OldestPendingAge(path); got != 0 {
		t.Errorf("OldestPendingAge(%s) = %d", path, got)
	}
	if r.PathPending(path) {
		t.Errorf("%s still pending", path)
	}
	if len(n.inflight.paths) != 0 {
		t.Errorf("table still holds %v", n.inflight.paths)
	}
	parent := path[:strings.LastIndex(path, "/")]
	scoped := r.Stats().BarriersScoped
	epoch, at, err := r.syncBarrier(0, parent)
	if err != nil {
		t.Fatal(err)
	}
	r.barrier.Release(epoch, at)
	if got := r.Stats().BarriersScoped; got != scoped+1 {
		t.Errorf("a barrier scoped to %s did not skip the node", parent)
	}
}

// TestClosedQueueRefusesAndReleases: an op its queue refuses — the region
// is shutting down — reaches its terminal in the client's own call.
func TestClosedQueueRefusesAndReleases(t *testing.T) {
	for _, withObs := range []bool{false, true} {
		e := newEnvDeps(t, 1, nil, func(d *Deps) {
			if withObs {
				d.Obs = obs.New()
			}
		})
		n := e.region.byName["node0"]
		n.queue.Close()
		if _, err := e.client(t, "node0").Create(0, "/w/f", 0o644); !errors.Is(err, fsapi.ErrClosed) {
			t.Fatalf("create on a closed queue = %v", err)
		}
		wantReleased(t, e.region, n, "/w/f")
	}
}

// TestInflightTableUnderRace: four clients take references on 64 paths,
// push them in their turns and hand each to one of four commit processes,
// which park a third of them first and release it, while a reader asks
// the table everything it answers and a crossing waits on one path over
// and over. References and parks never go negative and the table ends
// empty.
func TestInflightTableUnderRace(t *testing.T) {
	type ref struct {
		p    string
		wall int64
	}
	var (
		table   = inflight{paths: make(map[string]pending)}
		queue   = mq.NewQueue[Op]()  // what the takers push, in their turns
		handed  = make(chan ref, 16) // a short queue between takers and releasers
		takers  sync.WaitGroup
		workers sync.WaitGroup
		stop    = make(chan struct{})
	)
	table.cond.L = &table.mu
	const perTaker = 2000
	for g := 0; g < 4; g++ {
		takers.Add(1)
		go func(g int) {
			defer takers.Done()
			for i := 0; i < perTaker; i++ {
				r := ref{p: fmt.Sprintf("/w/d%d/f%d", i%8, (i*7+g)%8), wall: int64(g*perTaker + i + 1)}
				table.take(r.p, r.wall)
				if _, err := table.push(queue, &Op{Path: r.p}); err != nil {
					t.Error(err)
				}
				handed <- r
			}
		}(g)
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for r := range handed {
				parked := r.wall%3 == 0
				if parked {
					table.park(r.p)
				}
				table.release(r.p, r.wall, 0, parked)
			}
		}(g)
	}
	workers.Add(1)
	go func() {
		defer workers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := table.atRisk(); n < 0 || n > 4+cap(handed)+4 {
				t.Errorf("at risk = %d", n)
				return
			}
			table.hasUnder("/w/d3")
			table.refsOn("/w/d3/f3")
			if n := int(table.parked.Load()); n < 0 || n > 4+cap(handed)+4 {
				t.Errorf("parked = %d", n)
			}
			if w := table.oldest(""); w < 0 || w > 4*perTaker {
				t.Errorf("oldest = %d", w)
			}
			table.oldest("/w/d3/f3")
		}
	}()
	workers.Add(1)
	go func() {
		defer workers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := table.drained("/w/d3/f3"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	takers.Wait()
	close(handed)
	close(stop)
	workers.Wait()
	if table.atRisk() != 0 || int(table.parked.Load()) != 0 || len(table.paths) != 0 || table.oldest("") != 0 {
		t.Fatalf("table not empty at the end: %d refs, %d parked, %v", table.atRisk(), int(table.parked.Load()), table.paths)
	}
	// What was never taken cannot be given back, nor parked.
	table.park("/w/never")
	table.release("/w/never", 1, 0, true)
	if table.atRisk() != 0 || int(table.parked.Load()) != 0 || table.waiting != 0 {
		t.Fatalf("refs = %d, parked %d after a release of nothing", table.atRisk(), int(table.parked.Load()))
	}
}

// holdAfterStore is a network that forwards the next cache store of its
// method and then holds its caller before it
// learns the store landed: a client stopped between its store and its push.
type holdAfterStore struct {
	rpc.Network
	method  string
	mu      sync.Mutex
	armed   bool
	held    chan struct{}
	proceed chan struct{}
}

func (n *holdAfterStore) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	done, resp, err := n.Network.Invoke(addr, method, at, body)
	if method == n.method {
		n.mu.Lock()
		hold := n.armed
		n.armed = false
		n.mu.Unlock()
		if hold {
			n.held <- struct{}{}
			<-n.proceed
		}
	}
	return done, resp, err
}

// TestCrossingWaitsForAnOpBetweenStoreAndPush is the window the hand-over
// must keep closed: one writer's inline store is visible and its setstat
// not yet queued when a second writer's crossing claims the entry and
// drains the path. Nothing is in any queue, yet the path is pending — the
// first writer's reference, taken before its store — so the crossing
// waits, the setstat commits first, and the file is materialized over it.
// Were the path to read drained, the setstat would land after the
// crossing and restate the small file's size over the large one. The
// crossing comes from another node: on the writer's own, its claim would
// wait for the path's push turn before it is sent.
func TestCrossingWaitsForAnOpBetweenStoreAndPush(t *testing.T) {
	net := &holdAfterStore{method: "mutate", held: make(chan struct{}), proceed: make(chan struct{})}
	e := newEnvDeps(t, 2, func(cfg *RegionConfig) { cfg.SmallFileThreshold = 8 }, func(d *Deps) {
		net.Network = d.Bus
		d.Bus = net
	})
	first, second := e.client(t, "node0"), e.client(t, "node1")
	at, err := first.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	net.mu.Lock()
	net.armed = true
	net.mu.Unlock()
	small := make(chan error, 1)
	go func() {
		_, err := first.WriteAt(at, "/w/f", 0, []byte("abc"))
		small <- err
	}()
	<-net.held
	if !e.region.PathPending("/w/f") || e.region.QueueDepth() != 0 {
		t.Fatalf("between store and push: pending %v, queue depth %d", e.region.PathPending("/w/f"), e.region.QueueDepth())
	}
	crossing := make(chan error, 1)
	go func() {
		_, err := second.WriteAt(at, "/w/f", 2, bytes.Repeat([]byte("L"), 10))
		crossing <- err
	}()
	eventually(t, "the crossing's claim", func() bool { return claimedEntry(t, e.region, "/w/f") })
	select {
	case err := <-crossing:
		t.Fatalf("the crossing finished (%v) with the first writer's op not yet queued", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(net.proceed)
	for _, ch := range []chan error{small, crossing} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if size, data := dfsFile(t, e, at, "/w/f"); size != 12 || data != "abLLLLLLLLLL" {
		t.Fatalf("DFS holds %d bytes %q, want both writes", size, data)
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("%d ops dropped", st.Dropped)
	}
}

// TestPushesLeaveInStoreOrder is the same-node push inversion: A's create
// has landed in the cache and is not yet queued when B, a second client of
// the same node, writes the file inline — a store to be made over A's.
// Were B's setstat queued first, it would park on the DFS's ErrNotExist
// and hold the create behind it until the retry budget dropped both, acked
// as they are. B's write waits for A's turn instead, before its store.
func TestPushesLeaveInStoreOrder(t *testing.T) {
	net := &holdAfterStore{method: "mutate", held: make(chan struct{}), proceed: make(chan struct{})}
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		net.Network = d.Bus
		d.Bus = net
	})
	a, b := e.client(t, "node0"), e.client(t, "node0")
	net.mu.Lock()
	net.armed = true
	net.mu.Unlock()
	created := make(chan error, 1)
	go func() {
		_, err := a.Create(0, "/w/f", 0o644)
		created <- err
	}()
	<-net.held
	written := make(chan error, 1)
	go func() {
		_, err := b.WriteAt(0, "/w/f", 0, []byte("hello"))
		written <- err
	}()
	select {
	case err := <-written:
		t.Fatalf("B's write finished (%v) with A's create not yet queued", err)
	case <-time.After(20 * time.Millisecond):
	}
	if ent, ok := findEntry(t, e.region, "/w/f"); !ok || len(ent.Stat.Inline) != 0 {
		t.Fatalf("entry = %+v, want A's create: B stores in its turn", ent)
	}
	close(net.proceed)
	for _, ch := range []chan error{created, written} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	at, err := e.region.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("%d acked ops dropped", st.Dropped)
	}
	if size, data := dfsFile(t, e, at, "/w/f"); size != 5 || data != "hello" {
		t.Fatalf("DFS holds %d bytes %q, want B's write", size, data)
	}
}

// jittered is a network that holds each cache mutate for a random few
// microseconds before it forwards it: it widens the window between a
// client's push turn and its store, where another client of the node would
// store first were it not waiting for its own turn.
type jittered struct{ rpc.Network }

func (n jittered) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	if method == "mutate" {
		time.Sleep(time.Duration(rand.IntN(20)) * time.Microsecond)
	}
	return n.Network.Invoke(addr, method, at, body)
}

// TestSameNodeWritersKeepStoreOrder: two clients of one node write one
// small file inline, each its own bytes, in 200 rounds of one write each
// at once. Each row is sent in its push turn, so the node queues the
// setstats in the order the cache stored them: after every round's drain
// the DFS holds exactly the bytes the cache holds, and nothing is dropped.
func TestSameNodeWritersKeepStoreOrder(t *testing.T) {
	e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Bus = jittered{d.Bus} })
	clients := []*Client{e.client(t, "node0"), e.client(t, "node0")}
	at, err := clients[0].Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = c.WriteAt(at, "/w/f", 0, []byte(fmt.Sprintf("%c%03d", 'a'+i, round)))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		ent := mustEntry(t, e.region, "/w/f", "after a round")
		if size, data := dfsFile(t, e, at, "/w/f"); ent.Dirty || size != ent.Stat.Size || data != string(ent.Stat.Inline) {
			t.Fatalf("round %d: DFS holds %d bytes %q, the cache %+v", round, size, data, ent)
		}
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("%d acked ops dropped", st.Dropped)
	}
}

// stallBackend holds every ApplyBatch until open is closed: a DFS that has
// stopped taking commits.
type stallBackend struct {
	Backend
	open chan struct{}
}

func (s stallBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	<-s.open
	return s.Backend.ApplyBatch(at, ops)
}

// TestAtRiskBoundHoldsBackClients is the bound as backpressure: three
// clients of one node create files while the DFS takes no commit. Acks
// stop at the bound — the node never holds more than bound-1 acked ops
// plus one in progress per client — and the acks parked on it all return
// once the DFS takes commits again; every op commits.
func TestAtRiskBoundHoldsBackClients(t *testing.T) {
	const bound, clients, perClient = 2, 3, 20
	open := make(chan struct{})
	e := newEnvDeps(t, 1, func(cfg *RegionConfig) { cfg.AtRiskBound = bound }, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return stallBackend{inner(node), open} }
	})
	n := e.region.byName["node0"]
	var peak, acked atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := int64(n.inflight.atRisk()); r > peak.Load() {
				peak.Store(r)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := e.client(t, "node0")
		wg.Add(1)
		go func() {
			defer wg.Done()
			var at vclock.Time
			for j := 0; j < perClient; j++ {
				var err error
				if at, err = c.Create(at, fmt.Sprintf("/w/c%d-%d", i, j), 0o644); err != nil {
					errs <- err
					return
				}
				acked.Add(1)
			}
		}()
	}
	// Every client has an op in the table: unbounded, they would all have
	// been acked by now.
	eventually(t, "an op of every client in the table", func() bool { return n.inflight.atRisk() >= clients })
	if got := acked.Load(); got > bound-1 {
		t.Errorf("%d ops acked while the DFS took no commit, bound %d", got, bound)
	}
	close(open)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-sampled
	if p := peak.Load(); p > bound-1+clients {
		t.Errorf("at-risk ops peaked at %d, bound %d with %d clients", p, bound, clients)
	}
	if st := e.region.Stats(); st.Committed != clients*perClient || st.Dropped != 0 {
		t.Fatalf("committed %d of %d, dropped %d", st.Committed, clients*perClient, st.Dropped)
	}
}

// TestBoundedAckWaitsOutASlowCommitWithoutABarrier: at bound 1 a create's
// ack waits for its own commit, which the DFS holds for 50 ms. Nothing on
// the node has parked, so the ack waits — however long — and pushes no
// queue: once the wave lands it returns, and no barrier has run.
func TestBoundedAckWaitsOutASlowCommitWithoutABarrier(t *testing.T) {
	e, h := holdWaveEnv(t, 1, "/w/f", func(cfg *RegionConfig) { cfg.AtRiskBound = 1 })
	c := e.client(t, "node0")
	before := e.region.Stats()
	done := make(chan error, 1)
	go func() {
		_, err := c.Create(0, "/w/f", 0o644)
		done <- err
	}()
	<-h.held
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the ack returned (%v) with its op's wave held", err)
	default:
	}
	h.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := e.region.Stats()
	if st.BarriersScoped != before.BarriersScoped || st.BarriersFull != before.BarriersFull {
		t.Fatalf("barriers scoped %d → %d, full %d → %d; want none",
			before.BarriersScoped, st.BarriersScoped, before.BarriersFull, st.BarriersFull)
	}
	if st.Committed != before.Committed+1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v over %+v, want the create committed at its ack", st, before)
	}
}

// TestBoundedAckMovesAParkedOp: at bound 1 a create parks on its parent
// directory, whose mkdir another node's queue holds. A parked op is
// retried only when its queue next moves, and the create's ack waits
// behind it; the table tells the ack its node holds a parked op, and the
// ack moves it with one workspace barrier, in which the mkdir lands and
// the create after it.
func TestBoundedAckMovesAParkedOp(t *testing.T) {
	e, h := holdWaveEnv(t, 2, "/w/d", func(cfg *RegionConfig) {
		cfg.AtRiskBound = 1
		cfg.DisableParentCheck = true
	})
	c0, c1 := e.client(t, "node0"), e.client(t, "node1")
	mkdir, create := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := c1.Mkdir(0, "/w/d", 0o755)
		mkdir <- err
	}()
	<-h.held
	before := e.region.Stats()
	go func() {
		_, err := c0.Create(0, "/w/d/f", 0o644)
		create <- err
	}()
	eventually(t, "the create to park", func() bool { return e.region.parkedOps() == 1 })
	// Release the mkdir only once the ack's barrier has begun: released
	// earlier, the mkdir could land under the commit process's own retry
	// of the parked create, which then commits before the ack looks.
	eventually(t, "the ack's barrier", func() bool {
		st := e.region.Stats()
		return st.BarriersScoped+st.BarriersFull > before.BarriersScoped+before.BarriersFull
	})
	h.release()
	for _, ch := range []chan error{mkdir, create} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	st := e.region.Stats()
	if got := st.BarriersScoped + st.BarriersFull - before.BarriersScoped - before.BarriersFull; got != 1 {
		t.Fatalf("%d barriers ran, want the ack's one", got)
	}
	if st.Committed != before.Committed+2 || st.Dropped != 0 || e.region.parkedOps() != 0 {
		t.Fatalf("stats = %+v over %+v, %d parked; want both committed, nothing dropped", st, before, e.region.parkedOps())
	}
	if !e.dfs.MDS.Tree().Exists("/w/d/f") {
		t.Fatal("the create is not on the DFS at its ack")
	}
}

// waiters counts the crossings and acks waiting on n's in-flight table.
func waiters(n *node) int {
	n.inflight.mu.Lock()
	defer n.inflight.mu.Unlock()
	return n.inflight.waiting
}

// TestCloseTurnsAwayTheTableWaits: a crossing and a bounded ack waiting on
// the table for a held create are both answered ErrClosed by Region.Close —
// a closed table is not a drained one — and Close returns once the held
// wave does.
func TestCloseTurnsAwayTheTableWaits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound int
		run   func(c *Client) error
	}{
		{"crossing", 0, func(c *Client) error {
			at, err := c.Create(0, "/w/f", 0o644)
			if err == nil {
				_, err = c.WriteAt(at, "/w/f", 0, bytes.Repeat([]byte("L"), 20))
			}
			return err
		}},
		{"ack", 1, func(c *Client) error {
			_, err := c.Create(0, "/w/f", 0o644)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, h := holdWaveEnv(t, 1, "/w/f", func(cfg *RegionConfig) {
				cfg.SmallFileThreshold = 8
				cfg.AtRiskBound = tc.bound
			})
			c := e.client(t, "node0")
			done := make(chan error, 1)
			go func() { done <- tc.run(c) }()
			<-h.held
			eventually(t, "the "+tc.name+" to wait on the table", func() bool { return waiters(e.region.nodes[0]) == 1 })
			closed := make(chan error, 1)
			go func() { closed <- e.region.Close() }()
			if err := <-done; !errors.Is(err, fsapi.ErrClosed) {
				t.Fatalf("%s on a closing region = %v, want ErrClosed", tc.name, err)
			}
			h.release()
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegionHasOneNodeIndex pins in the source what node.go's header
// says. A region is a list of nodes: the only maps it holds are the one
// index by node name and the active rmdir targets (keyed by path), so a
// second per-node map arrives in the open; the two trackers and the
// region-wide spill map the table replaced, and the spill it then held,
// are named in no .go file of the module; CacheStats is a plain loop; and the node pointer an op
// carries costs the queue message nothing.
func TestRegionHasOneNodeIndex(t *testing.T) {
	var maps []string
	rt := reflect.TypeOf(Region{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Map {
			maps = append(maps, f.Name+" "+f.Type.String())
		}
	}
	sort.Strings(maps)
	if want := []string{"byName map[string]*core.node", "removing map[string]int"}; !reflect.DeepEqual(maps, want) {
		t.Errorf("Region's map fields = %q, want %q", maps, want)
	}
	if got := unsafe.Sizeof(Op{}); got > 160 {
		t.Errorf("Op is %d bytes, 160 before it carried its node", got)
	}
	gone := []string{"path" + "Tracker", "lag" + "Tracker", "spill" + "Put", "put" + "Spill", "take" + "Spill", "Spill" + "Count"}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, name := range gone {
			if err == nil && bytes.Contains(src, []byte(name)) {
				t.Errorf("%s mentions %s: what a node has in flight is in its one table", path, name)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("region.go")
	if err != nil {
		t.Fatal(err)
	}
	_, fn, _ := bytes.Cut(src, []byte("\nfunc (r *Region) CacheStats("))
	fn, _, _ = bytes.Cut(fn, []byte("\nfunc "))
	if len(fn) == 0 || bytes.Contains(fn, []byte("go func")) {
		t.Errorf("CacheStats is missing from region.go or spawns goroutines; it is a scrape-time sum")
	}
}
