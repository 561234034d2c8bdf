// Package indexfs implements the IndexFS-like metadata middleware the
// paper compares against (§II.B, §IV): the namespace is flattened into
// (parent directory ID, name) rows stored in an LSM KV store (LevelDB in
// IndexFS, internal/lsmkv here), directories are partitioned across
// metadata servers co-located with the client nodes, and clients cache
// directory entries with leases ("stateless caching"). Optional bulk
// insertion buffers creates client-side and merges them as SSTables —
// the BatchFS/DeltaFS mode.
//
// Simplification vs IndexFS: leases here bound client cache validity
// only; the server does not block mutations until lease expiry, because
// the looked-up components (directories on a path) are immutable in
// every workload the paper evaluates.
package indexfs

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"pacon/internal/fsapi"
	"pacon/internal/lsmkv"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/vfs"
	"pacon/internal/wire"
)

// RootDirID is the well-known directory ID of "/".
const RootDirID uint64 = 1

// DirID identifies a directory in the flattened namespace.
type DirID = uint64

// entryKey builds the LSM key for (dir, name): 8-byte big-endian dir ID
// (so one directory's rows are a contiguous prefix range) + '/' + name.
func entryKey(dir DirID, name string) []byte {
	k := make([]byte, 0, 9+len(name))
	k = binary.BigEndian.AppendUint64(k, dir)
	k = append(k, '/')
	k = append(k, name...)
	return k
}

// dirPrefix is the scan prefix covering every row of a directory.
func dirPrefix(dir DirID) []byte {
	k := make([]byte, 0, 9)
	k = binary.BigEndian.AppendUint64(k, dir)
	return append(k, '/')
}

// entryValue is the row payload: the stat plus, for directories, the
// child's own directory ID.
func encodeEntry(st fsapi.Stat, child DirID) []byte {
	e := wire.NewEncoder(80 + len(st.Inline))
	fsapi.EncodeStat(e, st)
	e.Uvarint(child)
	return e.Bytes()
}

func decodeEntry(b []byte) (fsapi.Stat, DirID, error) {
	d := wire.NewDecoder(b)
	st := fsapi.DecodeStat(d)
	child := d.Uvarint()
	if err := d.Finish(); err != nil {
		return fsapi.Stat{}, 0, err
	}
	return st, child, nil
}

// ServerConfig configures one IndexFS metadata server.
type ServerConfig struct {
	// Index is this server's position in the deployment (used to
	// allocate globally unique directory IDs).
	Index int
	// Store is the backing LSM options; FS defaults to an in-memory
	// backend.
	Store lsmkv.Options
	// Model supplies service costs; Workers the pool width.
	Model   vclock.LatencyModel
	Workers int
	// LeaseTTL is the dentry lease duration granted to clients.
	LeaseTTL vclock.Duration
}

// Server is one IndexFS metadata server.
type Server struct {
	cfg ServerConfig
	db  *lsmkv.DB
	res *vclock.Resource

	partMu sync.Mutex
	parts  map[DirID]*vclock.Resource // per-directory partition critical section

	nextDir atomic.Uint64

	inserts atomic.Int64
	lookups atomic.Int64
	scans   atomic.Int64
}

// NewServer opens a server (creating its store).
func NewServer(name string, cfg ServerConfig) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Store.FS == nil {
		cfg.Store.FS = vfs.NewMemFS()
	}
	db, err := lsmkv.Open(cfg.Store)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		db:    db,
		res:   vclock.NewResource(name, cfg.Workers),
		parts: make(map[DirID]*vclock.Resource),
	}
	// Directory IDs: high bits carry the server index, low bits a local
	// counter — globally unique without coordination.
	s.nextDir.Store(uint64(cfg.Index)<<40 | 2)
	return s, nil
}

// Close releases the store.
func (s *Server) Close() error { return s.db.Close() }

// Resource exposes the service pool.
func (s *Server) Resource() *vclock.Resource { return s.res }

// DB exposes the LSM store for white-box tests.
func (s *Server) DB() *lsmkv.DB { return s.db }

// ServerStats counts served operations.
type ServerStats struct {
	Inserts, Lookups, Scans int64
}

// Stats returns counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Inserts: s.inserts.Load(), Lookups: s.lookups.Load(), Scans: s.scans.Load()}
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

func (s *Server) get(dir DirID, name string) (fsapi.Stat, DirID, bool, error) {
	v, ok, err := s.db.Get(entryKey(dir, name))
	if err != nil || !ok {
		return fsapi.Stat{}, 0, false, err
	}
	st, child, err := decodeEntry(v)
	if err != nil {
		return fsapi.Stat{}, 0, false, err
	}
	return st, child, true, nil
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
		s.lookups.Add(1)
		st, child, ok, err := s.get(dir, name)
		cost := s.cfg.Model.LSMGetHitCost
		if !ok {
			cost = s.cfg.Model.LSMGetMissCost
		}
		done := s.res.Acquire(at, cost)
		if err != nil {
			return done, err
		}
		if !ok {
			return done, fsapi.ErrNotExist
		}
		fsapi.EncodeStat(reply, st)
		reply.Uvarint(child)
		reply.Int64(int64(s.cfg.LeaseTTL))
		return done, nil
	})

	// create / mkdir: (dir, name, stat) → childDirID (0 for files).
	insert := func(mkdir bool) rpc.Handler {
		return func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
			d := wire.NewDecoder(body)
			dir := d.Uint64()
			name := d.String()
			st := fsapi.DecodeStat(d)
			if err := d.Finish(); err != nil {
				return at, err
			}
			s.inserts.Add(1)
			// Existence check (bloom-filtered miss in the common case) +
			// WAL/memtable insert on the pool, then the directory's
			// partition critical section.
			done := s.res.Acquire(at, s.cfg.Model.LSMGetMissCost+s.cfg.Model.LSMPutCost)
			done = s.partition(dir).Acquire(done, s.cfg.Model.PartitionCost)
			key := entryKey(dir, name)
			if _, ok, err := s.db.Get(key); err != nil {
				return done, err
			} else if ok {
				return done, fsapi.ErrExist
			}
			var child DirID
			if mkdir {
				child = s.nextDir.Add(1)
				st.Type = fsapi.TypeDir
			} else {
				st.Type = fsapi.TypeFile
			}
			if err := s.db.Put(key, encodeEntry(st, child)); err != nil {
				return done, err
			}
			reply.Uvarint(child)
			return done, nil
		}
	}
	svc.HandleInto("create", insert(false))
	svc.HandleInto("mkdir", insert(true))

	// remove: delete a file row.
	svc.HandleInto("remove", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		name := d.String()
		if err := d.Finish(); err != nil {
			return at, err
		}
		done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost+s.cfg.Model.LSMPutCost)
		done = s.partition(dir).Acquire(done, s.cfg.Model.PartitionCost)
		st, _, ok, err := s.get(dir, name)
		if err != nil {
			return done, err
		}
		if !ok {
			return done, fsapi.ErrNotExist
		}
		if st.IsDir() {
			return done, fsapi.ErrIsDir
		}
		return done, s.db.Delete(entryKey(dir, name))
	})

	// removedir: delete a directory row (the emptiness check runs
	// against the child dir's owner via "empty").
	svc.HandleInto("removedir", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		name := d.String()
		if err := d.Finish(); err != nil {
			return at, err
		}
		done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost+s.cfg.Model.LSMPutCost)
		done = s.partition(dir).Acquire(done, s.cfg.Model.PartitionCost)
		st, _, ok, err := s.get(dir, name)
		if err != nil {
			return done, err
		}
		if !ok {
			return done, fsapi.ErrNotExist
		}
		if !st.IsDir() {
			return done, fsapi.ErrNotDir
		}
		return done, s.db.Delete(entryKey(dir, name))
	})

	// empty: does the directory with this ID have any rows here?
	svc.HandleInto("empty", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		if err := d.Finish(); err != nil {
			return at, err
		}
		done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost)
		it := s.db.Scan(dirPrefix(dir))
		empty := !it.Next()
		if err := it.Err(); err != nil {
			return done, err
		}
		reply.Bool(empty)
		return done, nil
	})

	// readdir: list a directory's rows.
	svc.HandleInto("readdir", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dir := d.Uint64()
		if err := d.Finish(); err != nil {
			return at, err
		}
		s.scans.Add(1)
		prefix := dirPrefix(dir)
		it := s.db.Scan(prefix)
		n := 0
		var entries []fsapi.DirEntry
		for it.Next() {
			st, _, derr := decodeEntry(it.Value())
			if derr != nil {
				return at, derr
			}
			entries = append(entries, fsapi.DirEntry{Name: string(it.Key()[len(prefix):]), Type: st.Type})
			n++
		}
		if err := it.Err(); err != nil {
			return at, err
		}
		done := s.res.Acquire(at, s.cfg.Model.LSMGetHitCost+vclock.Duration(n)*s.cfg.Model.LSMScanEntryCost)
		reply.Uvarint(uint64(n))
		for _, ent := range entries {
			reply.String(ent.Name)
			reply.Byte(byte(ent.Type))
		}
		return done, nil
	})

	// bulk: ingest pre-sorted rows (bulk insertion / BatchFS mode).
	svc.HandleInto("bulk", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		n := d.Uvarint()
		pairs := make([]lsmkv.KV, 0, n)
		for i := uint64(0); i < n; i++ {
			k := d.Blob()
			v := d.Blob()
			pairs = append(pairs, lsmkv.KV{Key: k, Value: v})
		}
		if err := d.Finish(); err != nil {
			return at, err
		}
		s.inserts.Add(int64(n))
		// Bulk ingestion amortizes the WAL: one table write for the batch.
		done := s.res.Acquire(at, s.cfg.Model.LSMPutCost+vclock.Duration(n)*s.cfg.Model.LSMScanEntryCost)
		return done, s.db.BulkIngest(pairs)
	})

	return svc
}
