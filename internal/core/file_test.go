package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

func TestSmallFileInlineWriteRead(t *testing.T) {
	e := newEnv(t, 2, nil)
	c := e.client(t, "node0")
	// The commit side writes the backup copy to a data server whenever
	// it gets to it; parked, the only traffic is the read path's.
	release := holdCommits(t, e.region)
	at, err := c.Create(0, "/w/small", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello inline world")
	if at, err = c.WriteAt(at, "/w/small", 0, payload); err != nil {
		t.Fatal(err)
	}
	// Served from the inline copy — no data-server traffic at all.
	got, at, err := c.ReadAt(at, "/w/small", 0, 100)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read = %q, %v", got, err)
	}
	for i, ds := range e.dfs.Data {
		if ds.ChunkCount() != 0 {
			t.Fatalf("data server %d touched for an inline file", i)
		}
	}
	// Another node's client sees the same bytes (shared cache).
	c2 := e.client(t, "node1")
	got, at, err = c2.ReadAt(at, "/w/small", 6, 6)
	if err != nil || string(got) != "inline" {
		t.Fatalf("cross-node inline read = %q, %v", got, err)
	}
	// After drain the backup copy (real file bytes) exists on the DFS.
	release()
	at, err = e.region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	direct := e.dfs.NewClient("verify", appCred, 0, 0)
	data, _, err := direct.ReadAt(at, "/w/small", 0, 100)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("DFS backup copy = %q, %v", data, err)
	}
}

func TestSmallFilePartialOverwrite(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, _ := c.Create(0, "/w/f", 0o644)
	at, _ = c.WriteAt(at, "/w/f", 0, []byte("aaaaaaaaaa"))
	at, err := c.WriteAt(at, "/w/f", 4, []byte("BB"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.ReadAt(at, "/w/f", 0, 10)
	if err != nil || string(got) != "aaaaBBaaaa" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestLargeFileTransitionAndRedirect(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, _ := c.Create(0, "/w/big", 0o644)
	// Start small...
	at, _ = c.WriteAt(at, "/w/big", 0, bytes.Repeat([]byte("s"), 1000))
	// ...then cross the 4 KiB threshold: the file materializes on the
	// DFS synchronously (§III.D.2).
	big := bytes.Repeat([]byte("L"), 8000)
	at, err := c.WriteAt(at, "/w/big", 1000, big)
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, ds := range e.dfs.Data {
		chunks += ds.ChunkCount()
	}
	if chunks == 0 {
		t.Fatal("large transition did not write to the data servers")
	}
	// Reads redirect to the DFS and see both the old inline prefix and
	// the new bytes.
	got, at, err := c.ReadAt(at, "/w/big", 0, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9000 || got[0] != 's' || got[999] != 's' || got[1000] != 'L' || got[8999] != 'L' {
		t.Fatalf("read-back shape wrong: len=%d", len(got))
	}
	st, at, err := c.Stat(at, "/w/big")
	if err != nil || st.Size != 9000 {
		t.Fatalf("size = %d, %v", st.Size, err)
	}
	// Appending more goes straight through.
	if at, err = c.WriteAt(at, "/w/big", 9000, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	st, _, _ = c.Stat(at, "/w/big")
	if st.Size != 9004 {
		t.Fatalf("size after append = %d", st.Size)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if e.region.Stats().Dropped != 0 {
		t.Fatalf("drops: %+v", e.region.Stats())
	}
}

// dfsFile reads p's size and content straight off the DFS.
func dfsFile(t *testing.T, e *env, at vclock.Time, p string) (int64, string) {
	t.Helper()
	direct := e.dfs.NewClient("verify", appCred, 0, 0)
	st, _, err := direct.Stat(at, p)
	if err != nil {
		t.Fatalf("DFS stat %s: %v", p, err)
	}
	data, _, err := direct.ReadAt(at, p, 0, 100)
	if err != nil {
		t.Fatalf("DFS read %s: %v", p, err)
	}
	return st.Size, string(data)
}

// TestFsyncLeavesTheQueuedBytes: fsync copies nothing, so what reaches
// the DFS is what the queued ops carry — the newest incarnation's newest
// bytes, whatever was fsynced on the way. Each script runs behind held
// commit processes and then drains; the DFS and the cache must agree on
// the file's final size and bytes. An fsync of a missing file errors.
func TestFsyncLeavesTheQueuedBytes(t *testing.T) {
	type step func(c *Client, at vclock.Time) (vclock.Time, error)
	create := func(c *Client, at vclock.Time) (vclock.Time, error) { return c.Create(at, "/w/f", 0o644) }
	write := func(off int64, data string) step {
		return func(c *Client, at vclock.Time) (vclock.Time, error) { return c.WriteAt(at, "/w/f", off, []byte(data)) }
	}
	fsync := func(c *Client, at vclock.Time) (vclock.Time, error) { return c.Fsync(at, "/w/f") }
	remove := func(c *Client, at vclock.Time) (vclock.Time, error) { return c.Remove(at, "/w/f") }
	cases := []struct {
		name string
		held []step // behind held commit processes
		then []step // after the drain, followed by another
		want string // the DFS's bytes, and its size in bytes
	}{
		{name: "written and fsynced", held: []step{create, write(0, "must be durable"), fsync},
			want: "must be durable"},
		// The first incarnation's create and remove annihilate in the
		// coalescer: its fsynced bytes must not reach the file created
		// next under its name.
		{name: "removed then created again", held: []step{create, write(0, "OLD INCARNATION"), fsync, remove},
			then: []step{create}, want: ""},
		// Two incarnations pass through the commit process in one batch.
		{name: "two incarnations in one batch/fsyncB=true",
			held: []step{create, write(0, "AAAAAAAAAAAAAAAA"), fsync, remove, create, write(0, "BBBB"), fsync}, want: "BBBB"},
		{name: "two incarnations in one batch/fsyncB=false",
			held: []step{create, write(0, "AAAAAAAAAAAAAAAA"), fsync, remove, create, write(0, "BBBB")}, want: "BBBB"},
		// The coalescer folds the three ops into one create carrying the
		// newest bytes: nothing older may land over the second write.
		{name: "written again after the fsync", held: []step{create, write(8, "tail"), fsync, write(0, "head")},
			want: "head\x00\x00\x00\x00tail"},
	}
	run := func(t *testing.T, c *Client, at vclock.Time, steps []step) vclock.Time {
		t.Helper()
		for i, s := range steps {
			var err error
			if at, err = s(c, at); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		return at
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 1, nil)
			c := e.client(t, "node0")
			release := holdCommits(t, e.region)
			at := run(t, c, 0, tc.held)
			release()
			at, err := e.region.Drain(at)
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.then) > 0 {
				if at, err = e.region.Drain(run(t, c, at, tc.then)); err != nil {
					t.Fatal(err)
				}
			}
			if size, data := dfsFile(t, e, at, "/w/f"); size != int64(len(tc.want)) || data != tc.want {
				t.Fatalf("DFS holds %d bytes %q, want %q", size, data, tc.want)
			}
			if st, _, err := c.Stat(at, "/w/f"); err != nil || st.Size != int64(len(tc.want)) {
				t.Fatalf("cache: size %d, %v", st.Size, err)
			}
			if st := e.region.Stats(); st.Dropped != 0 {
				t.Fatalf("drops: %+v", st)
			}
			if _, err := c.Fsync(at, "/w/ghost"); !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("fsync missing = %v", err)
			}
		})
	}
	// The charge of the paper's local direct-I/O write: an fsync of a dirty
	// small file costs exactly DataChunkCost plus DataPerKB per KiB of its
	// inline bytes more than the cache read it makes, and an fsync of a
	// clean file nothing more.
	t.Run("charge", func(t *testing.T) {
		e := newEnv(t, 1, nil)
		c := e.client(t, "node0")
		m := e.region.cfg.Model
		release := holdCommits(t, e.region)
		at, err := c.Create(0, "/w/f", 0o644)
		if err == nil {
			at, err = c.WriteAt(at, "/w/f", 0, bytes.Repeat([]byte("c"), 3<<10))
		}
		if err != nil {
			t.Fatal(err)
		}
		// cost times the cache read and then the fsync, each a second
		// after the last call, so no resource queues either.
		cost := func(at vclock.Time) (read, fsync vclock.Duration, done vclock.Time) {
			t.Helper()
			start := at.Add(time.Second)
			_, _, end, err := readEntry(c.cache, c.overhead(start), "/w/f")
			if err != nil {
				t.Fatal(err)
			}
			read, start = end.Sub(start), end.Add(time.Second)
			if done, err = c.Fsync(start, "/w/f"); err != nil {
				t.Fatal(err)
			}
			return read, done.Sub(start), done
		}
		read, fsync, at := cost(at)
		if want := read + m.DataChunkCost + 3*m.DataPerKB; fsync != want {
			t.Fatalf("dirty fsync cost %v, want %v", fsync, want)
		}
		release()
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		if read, fsync, _ = cost(at); fsync != read {
			t.Fatalf("clean fsync cost %v, want the cache read's %v", fsync, read)
		}
	})
}

// deadWriteAt is a backend whose single-file WriteAt fails as a dead
// shard's does; WriteBatch and everything else pass through.
type deadWriteAt struct{ Backend }

func (deadWriteAt) WriteAt(at vclock.Time, _ string, _ int64, _ []byte) (vclock.Time, error) {
	return at, fsapi.ErrClosed
}

// TestFsyncedCommitDropsNothing: a file created, written and fsynced
// commits its create and its bytes in separate waves, and neither asks
// for a single-file write. When fsync kept a copy to write back once the
// create landed, that WriteAt met the dead shard and counted the bytes
// lost, though the queued setstat carried them to the DFS all the same.
func TestFsyncedCommitDropsNothing(t *testing.T) {
	e := newEnvDeps(t, 1, func(cfg *RegionConfig) { cfg.CommitBatchSize = 1 }, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return deadWriteAt{inner(node)} }
	})
	c := e.client(t, "node0")
	release := holdCommits(t, e.region)
	at, err := c.Create(0, "/w/f", 0o644)
	if err == nil {
		at, err = c.WriteAt(at, "/w/f", 0, []byte("must be durable"))
	}
	if err == nil {
		at, err = c.Fsync(at, "/w/f")
	}
	if err != nil {
		t.Fatal(err)
	}
	release()
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d: %+v", st.Dropped, st)
	}
	if size, data := dfsFile(t, e, at, "/w/f"); size != 15 || data != "must be durable" {
		t.Fatalf("DFS holds %d bytes %q", size, data)
	}
}

func TestWriteToRemovedOrDirFails(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, _ := c.Mkdir(0, "/w/d", 0o755)
	if _, err := c.WriteAt(at, "/w/d", 0, []byte("x")); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("write to dir = %v", err)
	}
	at, _ = c.Create(at, "/w/f", 0o644)
	at, _ = c.Remove(at, "/w/f")
	if _, err := c.WriteAt(at, "/w/f", 0, []byte("x")); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("write to removed = %v", err)
	}
	if _, _, err := c.ReadAt(at, "/w/f", 0, 1); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("read removed = %v", err)
	}
}

func TestConcurrentCASWritersConverge(t *testing.T) {
	e := newEnv(t, 4, nil)
	setup := e.client(t, "node0")
	at, _ := setup.Create(0, "/w/shared", 0o666)
	_ = at

	// 8 writers update disjoint 8-byte slots of the same inline file
	// concurrently; CAS retries (§III.D.3) must not lose any slot.
	const writers = 8
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			c := e.client(t, fmt.Sprintf("node%d", wid%4))
			payload := bytes.Repeat([]byte{byte('A' + wid)}, 8)
			if _, err := c.WriteAt(0, "/w/shared", int64(wid*8), payload); err != nil {
				t.Error(err)
			}
		}(wid)
	}
	wg.Wait()

	got, _, err := setup.ReadAt(vclock.Time(1<<40), "/w/shared", 0, writers*8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*8 {
		t.Fatalf("final size = %d", len(got))
	}
	for wid := 0; wid < writers; wid++ {
		for j := 0; j < 8; j++ {
			if got[wid*8+j] != byte('A'+wid) {
				t.Fatalf("slot %d corrupted: %q", wid, got)
			}
		}
	}
}

func TestConcurrentCreatorsExactlyOneWins(t *testing.T) {
	e := newEnv(t, 4, nil)
	const racers = 12
	var wins, exists int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := e.client(t, fmt.Sprintf("node%d", i%4))
			_, err := c.Create(0, "/w/contested", 0o644)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				wins++
			case errors.Is(err, fsapi.ErrExist):
				exists++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 || exists != racers-1 {
		t.Fatalf("wins=%d exists=%d", wins, exists)
	}
}

func TestEvictionRoundRobinKeepsDirtyEntries(t *testing.T) {
	e := newEnv(t, 1, func(cfg *RegionConfig) {
		cfg.CacheCapacityBytes = 16 << 10
	})
	c := e.client(t, "node0")

	// Fill with committed entries first.
	at := vclock.Time(0)
	var err error
	for i := 0; i < 120; i++ {
		at, err = c.Create(at, fmt.Sprintf("/w/f%03d", i), 0o644)
		if err != nil && !errors.Is(err, fsapi.ErrOutOfSpace) {
			t.Fatal(err)
		}
		// Drain frequently so entries become clean (evictable).
		if i%20 == 19 {
			if at, err = e.region.Drain(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	at, err = e.region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	// Keep creating: capacity pressure must trigger region eviction
	// rather than failing the workload.
	for i := 0; i < 200; i++ {
		at, err = c.Create(at, fmt.Sprintf("/w/g%03d", i), 0o644)
		if err != nil {
			t.Fatalf("create %d under pressure: %v", i, err)
		}
		if i%20 == 19 {
			if at, err = e.region.Drain(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.region.Stats().Evictions == 0 {
		t.Fatal("no eviction rounds ran")
	}
	// Evicted entries reload from the DFS on demand.
	if _, _, err := c.Stat(at, "/w/f000"); err != nil {
		t.Fatalf("evicted entry unreachable: %v", err)
	}
}

func TestCheckpointRestoreAfterNodeFailure(t *testing.T) {
	e := newEnv(t, 2, nil)
	c := e.client(t, "node0")

	at, _ := c.Mkdir(0, "/w/keep", 0o755)
	at, _ = c.Create(at, "/w/keep/a", 0o644)
	at, _ = c.WriteAt(at, "/w/keep/a", 0, []byte("checkpointed"))
	seq, at, err := e.region.Checkpoint(c, at)
	if err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint activity that will be lost/rolled back.
	at, _ = c.Create(at, "/w/keep/b", 0o644)
	at, _ = c.Remove(at, "/w/keep/a")

	// node0 crashes: uncommitted ops in its queue vanish.
	e.region.SimulateNodeFailure("node0")

	// Roll back to the checkpoint from a surviving node.
	c2 := e.client(t, "node1")
	at, err = e.region.Restore(c2, at, seq)
	if err != nil {
		t.Fatal(err)
	}

	// The checkpointed state is back.
	st, at, err := c2.Stat(at, "/w/keep/a")
	if err != nil || st.Type != fsapi.TypeFile {
		t.Fatalf("restored file: %+v, %v", st, err)
	}
	if _, _, err := c2.Stat(at, "/w/keep/b"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("post-checkpoint file resurrected: %v", err)
	}
	// The checkpoint held a copy of the bytes, and the restore copied
	// them back.
	got, _, err := c2.ReadAt(at, "/w/keep/a", 0, 100)
	if err != nil || string(got) != "checkpointed" {
		t.Fatalf("restored data = %q, %v", got, err)
	}
}

// TestRestoreReadsCheckpointedBytes: a checkpoint holds the workspace's
// bytes as they were. After it, a small inline file and a large file are
// overwritten and a third file is removed and created again, all of it
// committed; a restore brings back the checkpointed bytes of all three —
// not what was written since, and not the re-created file's emptiness.
func TestRestoreReadsCheckpointedBytes(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	large := bytes.Repeat([]byte("checkpointed large file "), (64<<10)/24)
	want := map[string][]byte{
		"/w/small": []byte("twelve bytes"),
		"/w/large": large,
		"/w/gone":  []byte("removed, then created again"),
	}
	var at vclock.Time
	var err error
	for p, data := range want {
		if at, err = c.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		if at, err = c.WriteAt(at, p, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	seq, at, err := e.region.Checkpoint(c, at)
	if err != nil {
		t.Fatal(err)
	}

	if at, err = c.WriteAt(at, "/w/small", 0, []byte("TWELVE BYTES")); err != nil {
		t.Fatal(err)
	}
	if at, err = c.WriteAt(at, "/w/large", 0, bytes.Repeat([]byte{'x'}, len(large))); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Remove(at, "/w/gone"); err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, "/w/gone", 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	if at, err = e.region.Restore(c, at, seq); err != nil {
		t.Fatal(err)
	}
	for p, data := range want {
		got, done, err := c.ReadAt(at, p, 0, len(data)+8)
		at = done
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s after restore: %d bytes %.24q (%v), want the %d checkpointed %.24q", p, len(got), got, err, len(data), data)
		}
	}
}

func TestCheckpointIsOptionalDrainAlone(t *testing.T) {
	// Without checkpoints the DFS still holds every *committed*
	// operation (§III.G: "even without it, the DFS already guarantees
	// the crash consistency of committed operations").
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	at, _ := c.Create(0, "/w/committed", 0o644)
	at, err := e.region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	// Parked, the commit side cannot win the race to the second create
	// before the node goes down.
	release := holdCommits(t, e.region)
	at2, _ := c.Create(at, "/w/uncommitted", 0o644)
	_ = at2
	lost := e.region.SimulateNodeFailure("node0")
	release()
	if lost != 1 {
		t.Fatalf("lost ops = %d, want 1", lost)
	}
	if !e.dfs.MDS.Tree().Exists("/w/committed") {
		t.Fatal("committed op lost")
	}
	if e.dfs.MDS.Tree().Exists("/w/uncommitted") {
		t.Fatal("uncommitted op appeared on DFS after failure")
	}
}

// TestTableIConformance pins the paper's Table I: for each main metadata
// operation, the cache operation performed, the communication type with
// the DFS (async vs sync), and the commit type.
func TestTableIConformance(t *testing.T) {
	e := newEnv(t, 1, nil)
	c := e.client(t, "node0")
	mdsWrites := func() int64 { return e.dfs.MDS.Stats().Writes }
	// pending reports an op under p somewhere in the commit pipeline —
	// queued, in flight or parked. The queue's depth alone cannot say:
	// it drops at the dequeue, before the DFS has seen the op.
	pending := func(p string) bool { return e.region.byName["node0"].inflight.hasUnder(p) }

	// create: cache put, async, independent — returns with the op still
	// in the pipeline, or already written by a quick commit process.
	w0 := mdsWrites()
	at, err := c.Create(0, "/w/t-create", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if !pending("/w/t-create") && mdsWrites() == w0 {
		t.Fatal("create: nothing pending and nothing written — lost?")
	}

	// mkdir: same contract.
	if at, err = c.Mkdir(at, "/w/t-dir", 0o755); err != nil {
		t.Fatal(err)
	}

	// rm: cache update (mark) & delete-after-commit, async.
	if at, err = c.Remove(at, "/w/t-create"); err != nil {
		t.Fatal(err)
	}
	// Async: the DFS may not know yet, but the region does.
	if _, _, err := c.Stat(at, "/w/t-create"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("rm not reflected in cache")
	}

	// getattr: cache get; N/A comm on hit, sync on miss. Counted on the
	// client's own backend: the MDS-wide lookup counter also moves with
	// the commit process, still resolving ancestors for the ops queued
	// above.
	reads := &statCounter{Backend: c.backend}
	c.backend = reads
	if _, _, err := c.Stat(at, "/w/t-dir"); err != nil {
		t.Fatal(err)
	}
	c.backend = reads.Backend
	if reads.stats.Load() != 0 {
		t.Fatal("getattr hit consulted the DFS")
	}

	// rmdir: sync + barrier — on return the DFS is already updated and
	// nothing under the directory is left in the pipeline (the barrier is
	// scoped to it: the rm queued above may still be on its way).
	if at, err = c.Rmdir(at, "/w/t-dir"); err != nil {
		t.Fatal(err)
	}
	if e.dfs.MDS.Tree().Exists("/w/t-dir") {
		t.Fatal("rmdir returned before DFS applied it (must be sync)")
	}
	if pending("/w/t-dir") {
		t.Fatal("rmdir returned with ops pending under it (barrier violated)")
	}

	// readdir: sync + barrier — listing reflects every prior async op.
	if at, err = c.Create(at, "/w/t-x", 0o644); err != nil {
		t.Fatal(err)
	}
	ents, _, err := c.Readdir(at, "/w")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range ents {
		if ent.Name == "t-x" {
			found = true
		}
	}
	if !found {
		t.Fatal("readdir missed a just-created entry (barrier violated)")
	}
	if e.region.QueueDepth() != 0 {
		t.Fatal("readdir returned with queued ops")
	}
}
