package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Deterministic repros of the threshold-crossing races (§III.D.2), in the
// real code: a gate on one client's DFS data write holds a transition
// open at a chosen point while the test lets the commit side, a second
// writer or an eviction round run against it.

// gate intercepts the data writes of one client's backend (target); every
// other backend the region builds — the commit processes' — passes
// through.
type gate struct {
	target Backend
	// fail, if set, is what a held write fails with once resumed, without
	// reaching the DFS; otherwise the write lands, and is held before it
	// returns.
	fail   error
	held   chan struct{} // one token per write that reached the gate
	resume chan struct{} // closed to let held writes go
	net    mutateHook    // the region's network
}

type heldBackend struct {
	Backend
	g *gate
}

func (b *heldBackend) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	g := b.g
	if g.target != Backend(b) {
		return b.Backend.WriteAt(at, p, off, data)
	}
	var err error
	if g.fail == nil {
		at, err = b.Backend.WriteAt(at, p, off, data)
	}
	g.held <- struct{}{}
	<-g.resume
	if g.fail != nil {
		err = g.fail
	}
	return at, err
}

// gatedEnv is a one-node region with an 8-byte inline threshold whose
// first client's data writes go through the returned gate.
func gatedEnv(t *testing.T) (*env, *Client, *gate) {
	t.Helper()
	e, g := gatedRegion(t, 1)
	c := e.client(t, "node0")
	g.target = c.backend
	return e, c, g
}

// gatedRegion is a region of n nodes with an 8-byte inline threshold and
// a gate whose target the caller sets.
func gatedRegion(t *testing.T, n int) (*env, *gate) {
	t.Helper()
	g := &gate{held: make(chan struct{}, 8), resume: make(chan struct{})}
	e := newEnvDeps(t, n, func(cfg *RegionConfig) { cfg.SmallFileThreshold = 8 }, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return &heldBackend{Backend: inner(node), g: g} }
		g.net.Network, d.Bus = d.Bus, &g.net
	})
	return e, g
}

// eventually polls cond: the tests wait on states another goroutine
// reaches, which have no channel of their own.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func claimedEntry(t *testing.T, r *Region, p string) bool {
	ent, ok := findEntry(t, r, p)
	return ok && ent.Large && ent.Dirty && !ent.Removed
}

// TestQueuedCreateNeverShrinksGrowingFile is the adoption race, once the
// suite's flake of one run in three: the file's own create is still
// queued when a write crosses the threshold. At the parent commit the
// crossing wrote the DFS first; the queued create then met ErrExist,
// found the entry still small and dirty with its own seq, and adopted
// the file — imposing its size-0 stat over the bytes just written, so
// reads came back short. The gate holds the crossing's data write until
// the commit side has dealt with the create; whichever order the two
// reach the DFS in, the file must read back whole.
func TestQueuedCreateNeverShrinksGrowingFile(t *testing.T) {
	e, c, g := gatedEnv(t)
	release := holdCommits(t, e.region)
	at, err := c.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("L"), 100)
	done := make(chan error, 1)
	go func() {
		_, werr := c.WriteAt(at, "/w/f", 0, payload)
		done <- werr
	}()
	// With the commit side parked the write goes as far as it can: its
	// data is on the DFS (the parent's order; the gate holds the write's
	// return), or the entry is claimed and the path waits to drain.
	wrote := false
	eventually(t, "the crossing to reach the DFS or claim the entry", func() bool {
		select {
		case <-g.held:
			wrote = true
		default:
		}
		return wrote || claimedEntry(t, e.region, "/w/f")
	})
	release()
	// The queued create is handed whatever the DFS says and the commit
	// process finishes whatever it does about it.
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	close(g.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, at, err := c.ReadAt(at, "/w/f", 0, 200)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, %v; want the %d written", len(got), err, len(payload))
	}
	if st, _, err := c.Stat(at, "/w/f"); err != nil || st.Size != 100 {
		t.Fatalf("size = %d, %v", st.Size, err)
	}
	if ent := mustEntry(t, e.region, "/w/f", "after the crossing"); !ent.Large || ent.Dirty || len(ent.Stat.Inline) != 0 {
		t.Fatalf("entry after the crossing = %+v, want large, clean, no inline", ent)
	}
	if d := e.region.Stats().Dropped; d != 0 {
		t.Fatalf("%d ops dropped", d)
	}
}

// smallFile creates /w/f holding "abc", inline and committed.
func smallFile(t *testing.T, e *env, c *Client) vclock.Time {
	t.Helper()
	at, err := c.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.WriteAt(at, "/w/f", 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	return at
}

// crossHeld starts a crossing write of "LLLLLLLLLL" at offset 2 and
// returns once the gate holds it inside the transition.
func crossHeld(t *testing.T, c *Client, g *gate, at vclock.Time) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := c.WriteAt(at, "/w/f", 2, bytes.Repeat([]byte("L"), 10))
		done <- err
	}()
	<-g.held
	return done
}

// TestFailedCrossingRollsBack: the DFS fails mid-transition. While it
// runs the entry is claimed and readers are still served the acked
// inline bytes; afterwards the entry is the small dirty one it was,
// inline intact, the write returns the error, and the rollback's backup
// write commits it clean again.
func TestFailedCrossingRollsBack(t *testing.T) {
	e, c, g := gatedEnv(t)
	at := smallFile(t, e, c)
	g.fail = errors.New("data server down")
	done := crossHeld(t, c, g, at)

	if !claimedEntry(t, e.region, "/w/f") {
		t.Fatalf("entry during the transition = %+v, want claimed (large, dirty)", mustEntry(t, e.region, "/w/f", "mid-transition"))
	}
	reader := e.client(t, "node0")
	if got, _, err := reader.ReadAt(at, "/w/f", 0, 100); err != nil || string(got) != "abc" {
		t.Fatalf("read during the transition = %q, %v; want the acked inline bytes", got, err)
	}

	// Parked, the commit side leaves the rollback's backup write queued
	// and the entry as the rollback stored it.
	release := holdCommits(t, e.region)
	close(g.resume)
	if err := <-done; !errors.Is(err, g.fail) {
		t.Fatalf("crossing write = %v, want the DFS's error", err)
	}
	ent := mustEntry(t, e.region, "/w/f", "after the rollback")
	if ent.Large || !ent.Dirty || string(ent.Stat.Inline) != "abc" || ent.Stat.Size != 3 {
		t.Fatalf("rolled-back entry = %+v, want small, dirty, inline intact", ent)
	}
	release()
	wantCommitted(t, e, "/w/f", ent.Seq)
	if got, _, err := c.ReadAt(at, "/w/f", 0, 100); err != nil || string(got) != "abc" {
		t.Fatalf("read after the rollback = %q, %v", got, err)
	}
}

// TestSecondWriterWaitsForClaim: a writer that meets a claimed entry
// neither splices inline (the claimant's final store would drop it) nor
// writes through (the DFS file may not exist yet): it waits, and no byte
// of either write is lost.
func TestSecondWriterWaitsForClaim(t *testing.T) {
	e, c, g := gatedEnv(t)
	at := smallFile(t, e, c)
	done := crossHeld(t, c, g, at)

	second := e.client(t, "node0")
	done2 := make(chan error, 1)
	go func() {
		_, err := second.WriteAt(at, "/w/f", 0, []byte("Z"))
		done2 <- err
	}()
	select {
	case err := <-done2:
		t.Fatalf("second writer finished (%v) while the entry was claimed", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(g.resume)
	for _, ch := range []chan error{done, done2} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if at, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	} else if got, _, err := c.ReadAt(at, "/w/f", 0, 100); err != nil || string(got) != "ZbLLLLLLLLLL" {
		t.Fatalf("content = %q, %v; want both writes", got, err)
	}
}

// TestEvictionLeavesClaimInPlace: a claimed entry is dirty, whatever it
// was before, so an eviction round that reaches it mid-transition leaves
// it alone.
func TestEvictionLeavesClaimInPlace(t *testing.T) {
	e, c, g := gatedEnv(t)
	at := smallFile(t, e, c) // committed: the entry is clean when the write finds it
	done := crossHeld(t, c, g, at)

	evict(t, e.region, e.client(t, "node0"), at, "/w/f", false)
	if !claimedEntry(t, e.region, "/w/f") {
		t.Fatal("eviction took a claimed entry")
	}
	close(g.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ent := mustEntry(t, e.region, "/w/f", "after the crossing"); !ent.Large || ent.Dirty || ent.Stat.Size != 12 {
		t.Fatalf("entry after the crossing = %+v, want large, clean, 12 bytes", ent)
	}
}

// TestLostClaimIsTakenBack: the claimant's final store never reaches the
// cache (the same entry a claimant that died mid-transition leaves). No
// commit resolves a claim and no eviction takes it, so the next writer
// takes the claim back to the small dirty entry it was made on and goes
// ahead; the backup write the rollback re-queues commits the entry clean.
// (The claimant's bytes are on the DFS past the size the entry vouches
// for: its write failed, and a failed write may leave anything.)
func TestLostClaimIsTakenBack(t *testing.T) {
	e, c, g := gatedEnv(t)
	at := smallFile(t, e, c)
	done := crossHeld(t, c, g, at)
	lost := errors.New("cache server unreachable")
	g.net.hook(func() error { return lost })
	close(g.resume)
	if err := <-done; !errors.Is(err, lost) {
		t.Fatalf("crossing write = %v, want the lost store's error", err)
	}
	if !claimedEntry(t, e.region, "/w/f") {
		t.Fatalf("entry = %+v, want the claim left standing", mustEntry(t, e.region, "/w/f", "after the lost store"))
	}

	second := e.client(t, "node0")
	at, err := second.WriteAt(at, "/w/f", 0, []byte("Z"))
	if err != nil {
		t.Fatalf("write after a lost claim: %v", err)
	}
	ent := mustEntry(t, e.region, "/w/f", "after the take-back")
	if ent.Large || string(ent.Stat.Inline) != "Zbc" {
		t.Fatalf("entry = %+v, want small, the inline bytes and the new write", ent)
	}
	wantCommitted(t, e, "/w/f", ent.Seq)
	if got, _, err := c.ReadAt(at, "/w/f", 0, 100); err != nil || string(got) != "Zbc" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if d := e.region.Stats().Dropped; d != 0 {
		t.Fatalf("%d ops dropped", d)
	}
}

// TestClaimantNodeFailureEndsItsClaim: the claimant's node dies while its
// crossing is held on the DFS, and the entry's cache server, on the other
// node, survives. The failure ends the claimant's record, so the writer
// waiting on the claim takes it back at once — with the claimant still
// held — and writes over the inline bytes; the claimant, released, finds
// its claim gone and fails ErrStale.
func TestClaimantNodeFailureEndsItsClaim(t *testing.T) {
	e, g := gatedRegion(t, 2)
	claimant, writer := "node1", "node0"
	if e.region.ring.Lookup("/w/f") == e.region.byName[claimant].addr {
		claimant, writer = writer, claimant
	}
	c := e.client(t, claimant)
	g.target = c.backend
	at := smallFile(t, e, c)
	done := crossHeld(t, c, g, at)

	second := e.client(t, writer)
	done2 := make(chan error, 1)
	go func() {
		_, err := second.WriteAt(at, "/w/f", 0, []byte("Z"))
		done2 <- err
	}()
	eventually(t, "the second writer to wait on the claim", func() bool { return waiters(e.region.byName[claimant]) == 1 })
	if lost := e.region.SimulateNodeFailure(claimant); lost != 0 {
		t.Fatalf("%d queued ops lost, want none", lost)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("write after the claimant's node failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the second writer still waits on a claim whose node has failed")
	}
	close(g.resume)
	if err := <-done; !errors.Is(err, fsapi.ErrStale) {
		t.Fatalf("released claimant = %v, want ErrStale", err)
	}
	ent := mustEntry(t, e.region, "/w/f", "after the take-back")
	if ent.Large || string(ent.Stat.Inline) != "Zbc" {
		t.Fatalf("entry = %+v, want small, the inline bytes and the new write", ent)
	}
	wantCommitted(t, e, "/w/f", ent.Seq)
	if got, _, err := second.ReadAt(at, "/w/f", 0, 100); err != nil || string(got) != "Zbc" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if d := e.region.Stats().Dropped; d != 0 {
		t.Fatalf("%d ops dropped", d)
	}
}

// TestCloseTurnsAwayAClaimWait: a writer waiting on another client's
// claim is answered ErrClosed by Region.Close, the claimant still held.
func TestCloseTurnsAwayAClaimWait(t *testing.T) {
	e, c, g := gatedEnv(t)
	at := smallFile(t, e, c)
	done := crossHeld(t, c, g, at)
	second := e.client(t, "node0")
	done2 := make(chan error, 1)
	go func() {
		_, err := second.WriteAt(at, "/w/f", 0, []byte("Z"))
		done2 <- err
	}()
	eventually(t, "the second writer to wait on the claim", func() bool { return waiters(e.region.nodes[0]) == 1 })
	if err := e.region.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("claim wait on a closed region = %v, want ErrClosed", err)
	}
	close(g.resume)
	<-done
}

// TestCrossingMovesAParkedCreate: the file's create is parked on a node
// whose queue has gone idle — its parent directory reached the DFS from
// another node's queue after the create's last retry — and a parked op
// is retried only when its queue next moves. A crossing that merely
// waited for the path to drain would wait for ever; its node's in-flight
// table says the path's op has parked, and the crossing moves it with one
// scoped barrier.
func TestCrossingMovesAParkedCreate(t *testing.T) {
	e := newEnv(t, 2, func(cfg *RegionConfig) {
		cfg.SmallFileThreshold = 8
		cfg.DisableParentCheck = true
	})
	c, other := e.client(t, "node0"), e.client(t, "node1")
	at, err := c.Create(0, "/w/d/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Parked, and past the retry that follows every dequeue: from here the
	// commit process sits on its empty queue.
	eventually(t, "the create to park", func() bool {
		return e.region.parkedOps() == 1 && e.region.Stats().Retries >= 1
	})
	if at, err = other.Mkdir(at, "/w/d", 0o755); err != nil {
		t.Fatal(err)
	}
	direct := e.dfs.NewClient("verify", appCred, 0, 0)
	eventually(t, "the mkdir to commit", func() bool { _, _, err := direct.Stat(0, "/w/d"); return err == nil })
	if p := e.region.parkedOps(); p != 1 {
		t.Fatalf("parked = %d, want the create still parked behind its idle queue", p)
	}
	before := e.region.Stats()
	payload := bytes.Repeat([]byte("L"), 20)
	if at, err = c.WriteAt(at, "/w/d/f", 0, payload); err != nil {
		t.Fatal(err)
	}
	if got, _, err := direct.ReadAt(at, "/w/d/f", 0, 100); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("DFS copy = %q, %v", got, err)
	}
	st := e.region.Stats()
	if e.region.parkedOps() != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want nothing parked or dropped", st)
	}
	if st.BarriersScoped != before.BarriersScoped+1 || st.BarriersFull != before.BarriersFull {
		t.Fatalf("barriers scoped %d → %d, full %d → %d; want one scoped barrier",
			before.BarriersScoped, st.BarriersScoped, before.BarriersFull, st.BarriersFull)
	}
}

// waveHold holds the first commit-side or client ApplyBatch that carries
// path until release: a wave the DFS is slow to answer. held is closed
// once it arrives.
type waveHold struct {
	path         string
	arrive, end  sync.Once
	held, opened chan struct{}
}

// release lets the held ApplyBatch go; it may be called again.
func (h *waveHold) release() { h.end.Do(func() { close(h.opened) }) }

type heldWave struct {
	Backend
	h *waveHold
}

func (b heldWave) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	for _, op := range ops {
		if op.Path == b.h.path {
			b.h.arrive.Do(func() {
				close(b.h.held)
				<-b.h.opened
			})
			break
		}
	}
	return b.Backend.ApplyBatch(at, ops)
}

// holdWaveEnv is a region of n nodes whose first ApplyBatch carrying path
// is held until the returned hold's release (run at cleanup too, so a
// failing test does not hang the region's Close).
func holdWaveEnv(t *testing.T, n int, path string, mutate func(*RegionConfig)) (*env, *waveHold) {
	t.Helper()
	h := &waveHold{path: path, held: make(chan struct{}), opened: make(chan struct{})}
	e := newEnvDeps(t, n, mutate, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return heldWave{Backend: inner(node), h: h} }
	})
	t.Cleanup(h.release)
	return e, h
}

// TestCrossingWaitsOutASlowCommitWithoutABarrier: the file's create is in a
// wave the DFS holds for 300 ms when a write crosses the threshold. The
// create has not parked, so the crossing waits for it — however long — and
// pushes no queue: once the wave lands, the crossing completes without a
// barrier.
func TestCrossingWaitsOutASlowCommitWithoutABarrier(t *testing.T) {
	e, h := holdWaveEnv(t, 1, "/w/f", func(cfg *RegionConfig) { cfg.SmallFileThreshold = 8 })
	c := e.client(t, "node0")
	at, err := c.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	<-h.held
	before := e.region.Stats()
	payload := bytes.Repeat([]byte("L"), 20)
	done := make(chan error, 1)
	go func() {
		_, err := c.WriteAt(at, "/w/f", 0, payload)
		done <- err
	}()
	time.Sleep(300 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the crossing finished (%v) with the file's create held", err)
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
	if size, data := dfsFile(t, e, at, "/w/f"); size != 20 || data != string(payload) {
		t.Fatalf("DFS holds %d bytes %q, want the write", size, data)
	}
	if st.Dropped != 0 || e.region.parkedOps() != 0 {
		t.Fatalf("stats = %+v, %d parked; want nothing parked or dropped", st, e.region.parkedOps())
	}
}

// mutateHook is a network that runs a one-shot function just before it
// forwards the next cache "mutate" — or, if the function returns an error,
// instead of forwarding it: the request is lost.
type mutateHook struct {
	rpc.Network
	mu       sync.Mutex
	onMutate func() error
}

func (n *mutateHook) hook(f func() error) {
	n.mu.Lock()
	n.onMutate = f
	n.mu.Unlock()
}

func (n *mutateHook) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	if method == "mutate" {
		n.mu.Lock()
		f := n.onMutate
		n.onMutate = nil
		n.mu.Unlock()
		if f != nil {
			if err := f(); err != nil {
				return at, nil, err
			}
		}
	}
	return n.Network.Invoke(addr, method, at, body)
}

// TestLargeWriteSizeSurvivesConflict: two clients append to one large
// file, the first between the second's write-through and its size
// refresh. When the refresh was a CAS it lost to the first's — and once
// gave up, the cache keeping the smaller size for as long as the entry
// lived, so the loser's own Stat after its ack came back short. Both sizes
// are acked; Stat from either must cover both.
func TestLargeWriteSizeSurvivesConflict(t *testing.T) {
	net := &mutateHook{}
	e := newEnvDeps(t, 2, func(cfg *RegionConfig) { cfg.SmallFileThreshold = 8 }, func(d *Deps) {
		net.Network = d.Bus
		d.Bus = net
	})
	first, second := e.client(t, "node0"), e.client(t, "node1")
	at, err := first.Create(0, "/w/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = first.WriteAt(at, "/w/big", 0, bytes.Repeat([]byte("a"), 20)); err != nil {
		t.Fatal(err)
	}
	// The second writer's first mutate finds the file large; just before
	// its second, the size refresh, the first appends too.
	net.hook(func() error {
		net.hook(func() error {
			if _, err := first.WriteAt(at, "/w/big", 20, bytes.Repeat([]byte("b"), 10)); err != nil {
				t.Error(err)
			}
			return nil
		})
		return nil
	})
	if at, err = second.WriteAt(at, "/w/big", 30, bytes.Repeat([]byte("c"), 10)); err != nil {
		t.Fatal(err)
	}
	for i, cl := range []*Client{first, second} {
		if st, _, err := cl.Stat(at, "/w/big"); err != nil || st.Size < 40 {
			t.Fatalf("client %d: size = %d, %v; both appends were acked, want 40", i, st.Size, err)
		}
	}
	if got, _, err := second.ReadAt(at, "/w/big", 0, 100); err != nil || len(got) != 40 || got[39] != 'c' {
		t.Fatalf("read = %d bytes, %v", len(got), err)
	}
	if ent := mustEntry(t, e.region, "/w/big", "after both"); ent.Dirty || !ent.Large {
		t.Fatalf("entry = %+v, want large and clean", ent)
	}
}
