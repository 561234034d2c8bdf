package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	pobs "pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Tests for the data path: the data server's one write endpoint and the
// two client calls that feed it.

// methodCounter is a bus observer counting round trips by method.
type methodCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (m *methodCounter) ObserveRPC(_, method string, _ time.Duration, _ error) {
	m.mu.Lock()
	if m.counts == nil {
		m.counts = make(map[string]int)
	}
	m.counts[method]++
	m.mu.Unlock()
}

func (m *methodCounter) count(method string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[method]
}

func (m *methodCounter) total() (n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.counts {
		n += c
	}
	return n
}

// countCalls installs a methodCounter on c's bus.
func countCalls(c *Cluster) *methodCounter {
	m := &methodCounter{}
	c.Net.(*rpc.Bus).SetObserver(m)
	return m
}

// residentBytes is what the server's chunks hold.
func residentBytes(s *DataServer) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cs := range s.files {
		for _, c := range cs {
			n += len(c.data)
		}
	}
	return n
}

// readBack is what a read of n bytes at off in chunk idx of inode ino
// returns.
func readBack(s *DataServer, ino uint64, idx int64, off, n int) []byte {
	e := wire.NewEncoder(n + 8)
	s.readChunkInto(e, ino, idx, off, n)
	return wire.NewDecoder(e.Bytes()).BlobView()
}

// writeFrame builds a write_multi frame of the given entries.
type writeEntry struct {
	ino   uint64
	chunk int64
	inOff uint32
	data  []byte
}

func writeFrame(entries ...writeEntry) []byte {
	e := wire.NewEncoder(64)
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		encodeWrite(e, en.ino, en.chunk, int(en.inOff), en.data)
	}
	return e.Bytes()
}

// dropFrame builds a drop_multi frame of the given inodes.
func dropFrame(inos ...uint64) []byte {
	e := wire.NewEncoder(64)
	e.Uvarint(uint64(len(inos)))
	for _, ino := range inos {
		e.Uint64(ino)
	}
	return e.Bytes()
}

// inoOf is the inode the cluster's MDS holds at p.
func inoOf(t *testing.T, c *Cluster, p string) uint64 {
	t.Helper()
	_, ino, err := c.oracleTree(p).LookupIno(p)
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

// TestWriteMultiRefusesWhatLeavesItsChunk: the offset inside a chunk
// comes off the wire and sizes the chunk's allocation, so one 30-byte
// frame naming offset 2^32-1 used to allocate 4 GiB. An entry that ends
// outside its chunk, or names a negative chunk, is refused — with the
// whole frame, before anything is stored or sized.
func TestWriteMultiRefusesWhatLeavesItsChunk(t *testing.T) {
	s := NewDataServer("t/data", vclock.Default())
	bus := rpc.NewBus()
	bus.Register("t/data", s.Service())
	good := writeEntry{ino: 9, data: []byte("kept out")}
	for name, bad := range map[string]writeEntry{
		"offset 2^32-1":       {ino: 1, inOff: 1<<32 - 1, data: []byte("x")},
		"offset at ChunkSize": {ino: 1, inOff: ChunkSize, data: []byte("x")},
		"ends past the chunk": {ino: 1, inOff: ChunkSize - 3, data: []byte("four")},
		"negative chunk":      {ino: 1, chunk: -1, data: []byte("x")},
	} {
		frame := writeFrame(good, bad)
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = bus.Invoke("t/data", "write_multi", 0, frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: frame accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
			t.Fatalf("%s: refusing a %d-byte frame allocated %d bytes", name, len(frame), got)
		}
		if s.ChunkCount() != 0 || residentBytes(s) != 0 || s.res.Ops() != 0 {
			t.Fatalf("%s: refused frame left %d chunks, %d bytes resident, %d device ops; its good entry must not land either",
				name, s.ChunkCount(), residentBytes(s), s.res.Ops())
		}
	}
	// The last byte of a chunk is still inside it.
	if _, _, err := bus.Invoke("t/data", "write_multi", 0, writeFrame(writeEntry{ino: 1, inOff: ChunkSize - 1, data: []byte("x")})); err != nil {
		t.Fatalf("write ending at the chunk's end refused: %v", err)
	}
	if s.ChunkCount() != 1 || residentBytes(s) != ChunkSize {
		t.Fatalf("%d chunks, %d bytes resident; want one full chunk", s.ChunkCount(), residentBytes(s))
	}
}

// TestWriteMultiChargesTheSumOnce: a frame of n entries takes one device
// slot for the sum of the entries' costs.
func TestWriteMultiChargesTheSumOnce(t *testing.T) {
	model := vclock.Default()
	s := NewDataServer("t/data", model)
	a, b := bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("b"), 3000)
	done, err := s.writeMulti(0, writeFrame(writeEntry{ino: 1, data: a}, writeEntry{ino: 2, chunk: 2, inOff: 7, data: b}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := vclock.Time(0).Add(s.ioCost(len(a)) + s.ioCost(len(b))); done != want || s.res.Ops() != 1 {
		t.Fatalf("two-entry frame done at %d in %d device ops, want %d in one", done, s.res.Ops(), want)
	}
	if got := readBack(s, 1, 0, 0, len(a)); !bytes.Equal(got, a) {
		t.Fatalf("first entry read back %d bytes, want %d", len(got), len(a))
	}
	if got := readBack(s, 2, 2, 7, len(b)); !bytes.Equal(got, b) {
		t.Fatalf("second entry read back %d bytes, want %d", len(got), len(b))
	}
}

// dataCluster is a three-data-server cluster with /w prepared and an
// observer counting its round trips.
func dataCluster(t *testing.T) (*Cluster, *Client, *methodCounter) {
	t.Helper()
	c := NewCluster(rpc.NewBus(), vclock.Default(), rootCred, "storage0", []string{"storage1", "storage2", "storage3"})
	cl := appClient(t, c)
	return c, cl, countCalls(c)
}

// TestWriteBatchAsksTheMDSNothing: whole small files for a caller that
// just created them with their sizes — one write_multi per data server
// touched, no lookup, no size update — and each reads back whole. A file
// longer than a chunk is striped like any other.
func TestWriteBatchAsksTheMDSNothing(t *testing.T) {
	c, cl, obs := dataCluster(t)
	files := make([]fsapi.FileWrite, 9)
	ops := make([]fsapi.BatchOp, len(files))
	for i := range files {
		data := bytes.Repeat([]byte{byte('a' + i)}, 10+i)
		if i == 4 {
			data = bytes.Repeat([]byte("stripe"), ChunkSize/4) // 1.5 chunks
		}
		if i == 7 {
			data = nil // owes nothing: no entry anywhere
		}
		files[i] = fsapi.FileWrite{Path: fmt.Sprintf("/w/f%d", i), Data: data}
		st := fsapi.NewFileStat(appCred, 0o644)
		st.Size = int64(len(data))
		ops[i] = fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: files[i].Path, Stat: st}
	}
	errs, at, err := cl.ApplyBatch(0, ops)
	if err != nil || firstOf(errs) != nil {
		t.Fatalf("creates: %v %v", errs, err)
	}
	for i := range files {
		files[i].Ino = ops[i].Ino
	}
	files[2].Path = "/w//f2/" // cleaned on entry, like every path this client is handed
	lookups, writes := obs.count("lookup"), c.MDS.Stats().Writes
	errs, done, err := cl.WriteBatch(at, files)
	if err != nil || firstOf(errs) != nil || len(errs) != len(files) {
		t.Fatalf("WriteBatch = %v, %v", errs, err)
	}
	if done <= at {
		t.Fatalf("WriteBatch done at %d, left at %d", done, at)
	}
	if got := obs.count("write_multi"); got != len(c.Data) {
		t.Fatalf("%d write_multi round trips for files on all %d data servers", got, len(c.Data))
	}
	if obs.count("lookup") != lookups || c.MDS.Stats().Writes != writes {
		t.Fatalf("WriteBatch went to the MDS: %d lookups, %d writes", obs.count("lookup")-lookups, c.MDS.Stats().Writes-writes)
	}
	for _, f := range files {
		got, _, err := cl.ReadAt(done, f.Path, 0, len(f.Data)+8)
		if err != nil || !bytes.Equal(got, f.Data) {
			t.Fatalf("%s read back %d bytes (%v), want the %d written", f.Path, len(got), err, len(f.Data))
		}
	}
}

func firstOf(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestWriteBatchLoneServerAndDeadServer: files that share a data server
// cost one round trip; a data server that cannot be reached fails the
// files with a piece on it, each in its slot, and no others.
func TestWriteBatchLoneServerAndDeadServer(t *testing.T) {
	c, cl, obs := dataCluster(t)
	// Inodes by the data server their first chunk goes to.
	byServer := make([][]uint64, len(c.Data))
	for ino := uint64(1); len(byServer[0]) < 3 || len(byServer[1]) < 1 || len(byServer[2]) < 1; ino++ {
		srv := cl.serverIndex(ino, 0)
		byServer[srv] = append(byServer[srv], ino)
	}
	write := func(inos ...uint64) ([]error, []fsapi.FileWrite) {
		t.Helper()
		files := make([]fsapi.FileWrite, len(inos))
		for i, ino := range inos {
			p := fmt.Sprintf("/w/n%d", ino)
			files[i] = fsapi.FileWrite{Path: p, Ino: ino, Data: []byte("bytes of " + p)}
		}
		errs, _, err := cl.WriteBatch(0, files)
		if err != nil {
			t.Fatal(err)
		}
		return errs, files
	}
	if errs, _ := write(byServer[0][:3]...); firstOf(errs) != nil || obs.count("write_multi") != 1 {
		t.Fatalf("three files on one server: %v in %d round trips, want one", errs, obs.count("write_multi"))
	}
	if c.Data[0].ChunkCount() != 3 || c.Data[1].ChunkCount()+c.Data[2].ChunkCount() != 0 {
		t.Fatal("the lone server's frame did not land on it alone")
	}

	c.Net.Unregister(c.DataAddrs[1])
	errs, files := write(byServer[0][0], byServer[1][0], byServer[2][0])
	if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], fsapi.ErrClosed) {
		t.Fatalf("with data server 1 down: %v, want only its file failed with ErrClosed", errs)
	}
	if got := readBack(c.Data[2], files[2].Ino, 0, 0, 64); !bytes.Equal(got, files[2].Data) {
		t.Fatalf("live server holds %q, want %q", got, files[2].Data)
	}
	// The lone-server path has no one else to answer for.
	if errs, _ := write(byServer[1][0]); !errors.Is(errs[0], fsapi.ErrClosed) {
		t.Fatalf("lone dead server: %v", errs)
	}
}

// TestWriteAtSendsOneEntryFrames: WriteAt keeps its shape — the stat,
// one round trip per chunk touched, in order, and the size bump — over
// the one write endpoint the data server has.
func TestWriteAtSendsOneEntryFrames(t *testing.T) {
	c, cl, obs := dataCluster(t)
	if _, err := cl.Create(0, "/w/big", 0o644); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), (2*ChunkSize+4096)/16)
	writes := c.MDS.Stats().Writes
	const off = ChunkSize - 100
	if _, err := cl.WriteAt(0, "/w/big", off, data); err != nil {
		t.Fatal(err)
	}
	// From the first chunk's last hundred bytes on, the write touches four.
	if got := obs.count("write_multi"); got != 4 {
		t.Fatalf("%d write_multi round trips, want 4 frames of one entry", got)
	}
	if obs.count("lookup") == 0 || c.MDS.Stats().Writes != writes+1 {
		t.Fatalf("WriteAt must stat the file and bump its size: %d lookups, %d MDS writes", obs.count("lookup"), c.MDS.Stats().Writes-writes)
	}
	got, _, err := cl.ReadAt(0, "/w/big", off, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
}

// TestRemoveAndRmTreeFreeChunks: chunks are the inode's, and an unlink
// that frees the inode drops them — a Remove, an ApplyBatch's removes and
// an RmTree alike, with at most one drop_multi per data server per call,
// and the dfs_chunks_resident gauge follows. A file created again under a
// removed one's name is a new inode, and its hole reads zeros, not the
// old bytes.
func TestRemoveAndRmTreeFreeChunks(t *testing.T) {
	c, cl, obs := dataCluster(t)
	metrics := pobs.New()
	c.RegisterHotMetrics(metrics)
	resident := func(want int) {
		t.Helper()
		var prom strings.Builder
		metrics.WriteProm(&prom)
		if line := fmt.Sprintf("dfs_chunks_resident %d\n", want); !strings.Contains(prom.String(), line) {
			t.Fatalf("gauge does not read %d chunks:\n%s", want, prom.String())
		}
	}
	for _, d := range []string{"/w/d", "/w/d/sub"} {
		if _, err := cl.Mkdir(0, d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sizes := map[string]int{"/w/a": 10, "/w/big": 3*ChunkSize + 5, "/w/b1": 7, "/w/b2": 9, "/w/empty": 0,
		"/w/d/x": 20, "/w/d/sub/y": ChunkSize + 1, "/w/d/sub/z": 0}
	for p, n := range sizes {
		if _, err := cl.Create(0, p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WriteAt(0, p, 0, bytes.Repeat([]byte{'o'}, n)); err != nil {
			t.Fatal(err)
		}
	}
	resident(1 + 4 + 1 + 1 + 1 + 2)

	if _, err := cl.Remove(0, "/w/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Remove(0, "/w/big"); err != nil {
		t.Fatal(err)
	}
	if got := obs.count("drop_multi"); got != 1+len(c.Data) {
		t.Fatalf("%d drop_multi for a one-chunk file and a file on every server, want %d", got, 1+len(c.Data))
	}
	ops := []fsapi.BatchOp{
		{Kind: fsapi.BatchRemove, Path: "/w/b1"},
		{Kind: fsapi.BatchRemove, Path: "/w/b2"},
		{Kind: fsapi.BatchRemove, Path: "/w/empty"},
	}
	before := obs.count("drop_multi")
	if errs, _, _ := cl.ApplyBatch(0, ops); firstOf(errs) != nil {
		t.Fatal(errs)
	}
	if got := obs.count("drop_multi") - before; got < 1 || got > 2 {
		t.Fatalf("%d drop_multi for a batch freeing two one-chunk files", got)
	}
	before = obs.count("drop_multi")
	if _, err := cl.Remove(0, "/w/d/sub/z"); err != nil || obs.count("drop_multi") != before {
		t.Fatalf("the remove of an empty file sent %d drops (%v)", obs.count("drop_multi")-before, err)
	}
	if ops[2].Ino == 0 || ops[2].Stat.Size != 0 {
		t.Fatalf("the remove of an empty file answered inode %d, size %d", ops[2].Ino, ops[2].Stat.Size)
	}
	if _, _, err := cl.RmTree(0, "/w/d"); err != nil {
		t.Fatal(err)
	}
	resident(0)

	if _, err := cl.Create(0, "/w/a", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WriteAt(0, "/w/a", 8, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.ReadAt(0, "/w/a", 0, 16)
	if want := append(make([]byte, 8), "new"...); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-created file reads %q (%v), want %q", got, err, want)
	}
}
