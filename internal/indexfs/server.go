// Package indexfs implements the IndexFS-like metadata middleware the
// paper compares against (§II.B, §IV): the namespace is flattened into
// (parent directory ID, name) rows, directories are partitioned across
// metadata servers co-located with the client nodes, and clients cache
// directory entries with leases ("stateless caching"). Optional bulk
// insertion buffers creates client-side and merges them in batches — the
// BatchFS/DeltaFS mode.
//
// IndexFS keeps its rows in LevelDB. Here each server keeps them in one
// in-memory table (table.go), and the LatencyModel's LSM costs charge
// what LevelDB would: a put, a positive get, a bloom-filtered miss and a
// per-row scan, picked by whether a key was found and how many rows an
// operation touched.
//
// Simplification vs IndexFS: leases here bound client cache validity
// only; the server does not block mutations until lease expiry, because
// the looked-up components (directories on a path) are immutable in
// every workload the paper evaluates.
package indexfs

import (
	"fmt"
	"sync"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// RootDirID is the well-known directory ID of "/".
const RootDirID uint64 = 1

// DirID identifies a directory in the flattened namespace.
type DirID = uint64

// ServerConfig configures one IndexFS metadata server.
type ServerConfig struct {
	// Index is this server's position in the deployment (used to
	// allocate globally unique directory IDs).
	Index int
	// Model supplies service costs; Workers the pool width.
	Model   vclock.LatencyModel
	Workers int
	// LeaseTTL is the dentry lease duration granted to clients.
	LeaseTTL vclock.Duration
}

// Server is one IndexFS metadata server.
type Server struct {
	cfg  ServerConfig
	rows *table
	res  *vclock.Resource

	partMu sync.Mutex
	parts  map[DirID]*vclock.Resource // per-directory partition critical section
}

// NewServer builds a server with an empty table.
func NewServer(name string, cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &Server{
		cfg: cfg,
		// Directory IDs: high bits carry the server index, low bits a
		// local counter — globally unique without coordination.
		rows:  newTable(uint64(cfg.Index)<<40 | 2),
		res:   vclock.NewResource(name, cfg.Workers),
		parts: make(map[DirID]*vclock.Resource),
	}
}

// partition returns the directory's partition resource on this server:
// the serialized dirent-block/GIGA+ critical section every insert into
// the directory holds (see vclock.LatencyModel.PartitionCost).
func (s *Server) partition(dir DirID) *vclock.Resource {
	s.partMu.Lock()
	defer s.partMu.Unlock()
	p, ok := s.parts[dir]
	if !ok {
		p = vclock.NewResource(fmt.Sprintf("part-%d", dir), 1)
		s.parts[dir] = p
	}
	return p
}

// Service exposes the server's RPC methods.
func (s *Server) Service() *rpc.Service {
	svc := rpc.NewService()

	// lookup: (dir, name) → (stat, childDirID, leaseTTL).
	svc.HandleInto("lookup", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		name := d.String()
		if err := d.Finish(); err != nil {
			return at, err
		}
		r, ok := s.rows.get(dir, name)
		cost := s.cfg.Model.LSMGetHitCost
		if !ok {
			cost = s.cfg.Model.LSMGetMissCost
		}
		done := s.res.Acquire(at, cost)
		if !ok {
			return done, fsapi.ErrNotExist
		}
		fsapi.EncodeStat(reply, r.st)
		reply.Uvarint(r.child)
		reply.Int64(int64(s.cfg.LeaseTTL))
		return done, nil
	})

	// create / mkdir: (dir, name, stat) → childDirID (0 for files).
	insert := func(typ fsapi.FileType) rpc.Handler {
		return func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
			d := wire.NewDecoder(body)
			dir := d.Uint64()
			name := d.String()
			st := fsapi.DecodeStat(d)
			if err := d.Finish(); err != nil {
				return at, err
			}
			// LevelDB's existence check (a bloom-filtered miss in the
			// common case) and put on the pool, then the directory's
			// partition critical section.
			done := s.res.Acquire(at, s.cfg.Model.LSMGetMissCost+s.cfg.Model.LSMPutCost)
			done = s.partition(dir).Acquire(done, s.cfg.Model.PartitionCost)
			st.Type = typ
			child, ok := s.rows.insert(dir, name, st)
			if !ok {
				return done, fsapi.ErrExist
			}
			reply.Uvarint(child)
			return done, nil
		}
	}
	svc.HandleInto("create", insert(fsapi.TypeFile))
	svc.HandleInto("mkdir", insert(fsapi.TypeDir))

	// remove / removedir: delete a file or a directory row (rmdir's
	// emptiness check runs against the child dir's owners via "empty").
	remove := func(wantDir bool) rpc.Handler {
		return func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
			d := wire.NewDecoder(body)
			dir := d.Uint64()
			name := d.String()
			if err := d.Finish(); err != nil {
				return at, err
			}
			done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost+s.cfg.Model.LSMPutCost)
			done = s.partition(dir).Acquire(done, s.cfg.Model.PartitionCost)
			return done, s.rows.remove(dir, name, wantDir)
		}
	}
	svc.HandleInto("remove", remove(false))
	svc.HandleInto("removedir", remove(true))

	// empty: does the directory with this ID have any rows here?
	svc.HandleInto("empty", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		if err := d.Finish(); err != nil {
			return at, err
		}
		done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost)
		reply.Bool(s.rows.empty(dir))
		return done, nil
	})

	// readdir: list a directory's rows.
	svc.HandleInto("readdir", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		if err := d.Finish(); err != nil {
			return at, err
		}
		ents := s.rows.scan(dir)
		done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost+vclock.Duration(len(ents))*s.cfg.Model.LSMScanEntryCost)
		reply.Uvarint(uint64(len(ents)))
		for _, ent := range ents {
			reply.String(ent.Name)
			reply.Byte(byte(ent.Type))
		}
		return done, nil
	})

	// bulk: store a client's buffered creates (bulk insertion / BatchFS
	// mode), in any order.
	svc.HandleInto("bulk", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		n := d.Count()
		rows := make([]bulkRow, 0, n)
		for i := 0; i < n; i++ {
			r, err := decodeBulkRow(d)
			if err != nil {
				return at, err
			}
			rows = append(rows, r)
		}
		if err := d.Finish(); err != nil {
			return at, err
		}
		// One LevelDB write for the batch plus a per-row share.
		done := s.res.Acquire(at, s.cfg.Model.LSMPutCost+vclock.Duration(n)*s.cfg.Model.LSMScanEntryCost)
		s.rows.put(rows)
		return done, nil
	})

	return svc
}
