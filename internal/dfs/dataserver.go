package dfs

import (
	"errors"
	"sync"
	"sync/atomic"

	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// ChunkSize is the stripe unit: consecutive chunks of a file land on
// consecutive data servers (BeeGFS default striping).
const ChunkSize = 512 << 10

// DataServer stores file chunks. Chunks hold real bytes so data-path
// tests verify content, while the virtual-time model charges the device
// cost per chunk plus per KiB.
type DataServer struct {
	model vclock.LatencyModel
	res   *vclock.Resource

	mu     sync.Mutex
	chunks map[chunkKey][]byte

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

type chunkKey struct {
	path string
	idx  int64
}

// NewDataServer creates a data server.
func NewDataServer(name string, model vclock.LatencyModel) *DataServer {
	workers := model.DataWorkers
	if workers <= 0 {
		workers = 8
	}
	return &DataServer{
		model:  model,
		res:    vclock.NewResource(name, workers),
		chunks: make(map[chunkKey][]byte),
	}
}

func (s *DataServer) ioCost(n int) vclock.Duration {
	return s.model.DataChunkCost + vclock.Duration(int64(s.model.DataPerKB)*int64(n)/1024)
}

// writeChunk stores data at [off, off+len) within one chunk. The caller
// holds s.mu and has checked that the range ends inside the chunk.
func (s *DataServer) writeChunk(path string, idx int64, off int, data []byte) {
	key := chunkKey{path: path, idx: idx}
	chunk := s.chunks[key]
	if need := off + len(data); len(chunk) < need {
		grown := make([]byte, need)
		copy(grown, chunk)
		chunk = grown
	}
	copy(chunk[off:], data)
	s.chunks[key] = chunk
}

// readChunkInto appends up to n bytes at off within one chunk to e, as
// a blob, and returns how many it read.
func (s *DataServer) readChunkInto(e *wire.Encoder, path string, idx int64, off, n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	chunk := s.chunks[chunkKey{path: path, idx: idx}]
	part := chunk[min(off, len(chunk)):min(off+n, len(chunk))]
	e.Blob(part)
	return len(part)
}

// dropFile removes all chunks of path on this server.
func (s *DataServer) dropFile(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.chunks {
		if k.path == path {
			delete(s.chunks, k)
		}
	}
}

// ChunkCount reports resident chunks (test/diagnostic use).
func (s *DataServer) ChunkCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chunks)
}

var errOutsideChunk = errors.New("dfs: write_multi entry reaches outside its chunk")

// writeMulti is the one write endpoint: a count-guarded frame of
// {path, chunk, inOff, blob} entries, one entry for each chunk-sized
// piece a client's write touches on this server — a striped WriteAt
// sends frames of one, a commit wave's WriteBatch one frame holding this
// server's share of the wave's small files. The frame is read twice.
// The first pass decodes all of it and checks every entry, touching
// nothing: a piece must end inside its chunk (inOff comes off the wire,
// and writeChunk sizes a chunk by it) and a chunk index is not negative,
// so one bad entry refuses the whole frame and nothing is sized by a
// number the frame made up. Then the device is charged once for the sum
// of the entries' costs, as apply_batch and settle_multi charge theirs,
// and the second pass stores them.
func (s *DataServer) writeMulti(at vclock.Time, body []byte, _ *wire.Encoder) (vclock.Time, error) {
	d := wire.GetDecoder(body)
	defer wire.PutDecoder(d)
	n := d.Count()
	var cost vclock.Duration
	var total int64
	for i := 0; i < n && d.Err() == nil; i++ {
		d.BlobView() // the path
		idx := d.Int64()
		off := d.Uint32()
		data := d.BlobView()
		if d.Err() == nil && (idx < 0 || int64(off)+int64(len(data)) > ChunkSize) {
			return at, errOutsideChunk
		}
		cost += s.ioCost(len(data))
		total += int64(len(data))
	}
	if err := d.Finish(); err != nil {
		return at, err
	}
	done := s.res.Acquire(at, cost)
	d.Reset(body)
	d.Count()
	s.mu.Lock()
	for i := 0; i < n; i++ {
		path := d.String()
		idx := d.Int64()
		off := int(d.Uint32())
		s.writeChunk(path, idx, off, d.BlobView())
	}
	s.mu.Unlock()
	s.bytesIn.Add(total)
	return done, nil
}

// Service exposes the data-server RPC methods.
func (s *DataServer) Service() *rpc.Service {
	svc := rpc.NewService()
	svc.HandleInto("write_multi", s.writeMulti)
	svc.HandleInto("read", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		path := d.String()
		idx := d.Int64()
		off := int(d.Uint32())
		n := int(d.Uint32())
		if err := d.Finish(); err != nil {
			return at, err
		}
		got := s.readChunkInto(reply, path, idx, off, n)
		done := s.res.Acquire(at, s.ioCost(got))
		s.bytesOut.Add(int64(got))
		return done, nil
	})
	svc.HandleInto("drop", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		path := d.String()
		if err := d.Finish(); err != nil {
			return at, err
		}
		done := s.res.Acquire(at, s.model.DataChunkCost)
		s.dropFile(path)
		return done, nil
	})
	svc.HandleInto("sync", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		// fsync: charge one device op.
		return s.res.Acquire(at, s.model.DataChunkCost), nil
	})
	return svc
}
