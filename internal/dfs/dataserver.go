package dfs

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// ChunkSize is the stripe unit: consecutive chunks of a file land on
// consecutive data servers (BeeGFS default striping).
const ChunkSize = 512 << 10

// DataServer stores file chunks, by inode: a file's chunks are named by
// the number its MDS gave it, never by its path, so a rename moves no
// bytes and a file re-created under a removed one's name starts empty.
// Chunks hold real bytes so data-path tests verify content, while the
// virtual-time model charges the device cost per chunk plus per KiB.
type DataServer struct {
	model vclock.LatencyModel
	res   *vclock.Resource

	mu     sync.Mutex
	files  map[uint64][]chunk // by inode, in chunk order
	chunks int
}

// chunk is one chunk of a file on this server.
type chunk struct {
	idx  int64
	data []byte
}

// NewDataServer creates a data server.
func NewDataServer(name string, model vclock.LatencyModel) *DataServer {
	workers := model.DataWorkers
	if workers <= 0 {
		workers = 8
	}
	return &DataServer{
		model: model,
		res:   vclock.NewResource(name, workers),
		files: make(map[uint64][]chunk),
	}
}

func (s *DataServer) ioCost(n int) vclock.Duration {
	return s.model.DataChunkCost + vclock.Duration(int64(s.model.DataPerKB)*int64(n)/1024)
}

// find returns the position of chunk idx in cs, or where it would go.
func find(cs []chunk, idx int64) (int, bool) {
	return slices.BinarySearchFunc(cs, idx, func(c chunk, idx int64) int { return cmp.Compare(c.idx, idx) })
}

// writeChunk stores data at [off, off+len) within chunk idx of inode
// ino. The caller holds s.mu and has checked that the range ends inside
// the chunk.
func (s *DataServer) writeChunk(ino uint64, idx int64, off int, data []byte) {
	cs := s.files[ino]
	i, ok := find(cs, idx)
	if !ok {
		cs = slices.Insert(cs, i, chunk{idx: idx})
		s.files[ino] = cs
		s.chunks++
	}
	c := &cs[i]
	if need := off + len(data); len(c.data) < need {
		grown := make([]byte, need)
		copy(grown, c.data)
		c.data = grown
	}
	copy(c.data[off:], data)
}

// readChunkInto appends up to n bytes at off within chunk idx of inode
// ino to e, as a blob, and returns how many it read.
func (s *DataServer) readChunkInto(e *wire.Encoder, ino uint64, idx int64, off, n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var data []byte
	if cs := s.files[ino]; cs != nil {
		if i, ok := find(cs, idx); ok {
			data = cs[i].data
		}
	}
	part := data[min(off, len(data)):min(off+n, len(data))]
	e.Blob(part)
	return len(part)
}

// ChunkCount reports resident chunks.
func (s *DataServer) ChunkCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunks
}

// Inodes calls fn with every inode this server holds chunks of and how
// many, under the server's lock: fn must not call back into it.
func (s *DataServer) Inodes(fn func(ino uint64, chunks int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ino, cs := range s.files {
		fn(ino, len(cs))
	}
}

var errOutsideChunk = errors.New("dfs: write_multi entry reaches outside its chunk")

// writeMulti is the one write endpoint: a count-guarded frame of
// {inode, chunk, inOff, blob} entries, one entry for each chunk-sized
// piece a client's write touches on this server — a striped WriteAt
// sends frames of one, a commit wave's WriteBatch one frame holding this
// server's share of the wave's small files. The frame is read twice.
// The first pass decodes all of it and checks every entry, touching
// nothing: a piece must end inside its chunk (inOff comes off the wire,
// and writeChunk sizes a chunk by it) and a chunk index is not negative,
// so one bad entry refuses the whole frame and nothing is sized by a
// number the frame made up. Then the device is charged once for the sum
// of the entries' costs, as apply_batch and mutate_multi charge theirs,
// and the second pass stores them.
func (s *DataServer) writeMulti(at vclock.Time, body []byte, _ *wire.Encoder) (vclock.Time, error) {
	d := wire.GetDecoder(body)
	defer wire.PutDecoder(d)
	n := d.Count()
	var cost vclock.Duration
	for i := 0; i < n && d.Err() == nil; i++ {
		d.Uint64() // the inode
		idx := d.Int64()
		off := d.Uint32()
		data := d.BlobView()
		if d.Err() == nil && (idx < 0 || int64(off)+int64(len(data)) > ChunkSize) {
			return at, errOutsideChunk
		}
		cost += s.ioCost(len(data))
	}
	if err := d.Finish(); err != nil {
		return at, err
	}
	done := s.res.Acquire(at, cost)
	d.Reset(body)
	d.Count()
	s.mu.Lock()
	for i := 0; i < n; i++ {
		ino := d.Uint64()
		idx := d.Int64()
		off := int(d.Uint32())
		s.writeChunk(ino, idx, off, d.BlobView())
	}
	s.mu.Unlock()
	return done, nil
}

// dropMulti frees every chunk of each inode in a count-guarded list:
// the files an unlink on the MDS freed. Like write_multi it decodes the
// whole frame before it touches anything, then takes one device slot for
// one DataChunkCost per inode.
func (s *DataServer) dropMulti(at vclock.Time, body []byte, _ *wire.Encoder) (vclock.Time, error) {
	d := wire.GetDecoder(body)
	defer wire.PutDecoder(d)
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		d.Uint64()
	}
	if err := d.Finish(); err != nil {
		return at, err
	}
	done := s.res.Acquire(at, s.model.DataChunkCost*vclock.Duration(n))
	d.Reset(body)
	d.Count()
	s.mu.Lock()
	for i := 0; i < n; i++ {
		ino := d.Uint64()
		s.chunks -= len(s.files[ino])
		delete(s.files, ino)
	}
	s.mu.Unlock()
	return done, nil
}

// Service exposes the data-server RPC methods.
func (s *DataServer) Service() *rpc.Service {
	svc := rpc.NewService()
	svc.HandleInto("write_multi", s.writeMulti)
	svc.HandleInto("drop_multi", s.dropMulti)
	svc.HandleInto("read", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		ino := d.Uint64()
		idx := d.Int64()
		off := int(d.Uint32())
		n := int(d.Uint32())
		if err := d.Finish(); err != nil {
			return at, err
		}
		got := s.readChunkInto(reply, ino, idx, off, n)
		return s.res.Acquire(at, s.ioCost(got)), nil
	})
	return svc
}
