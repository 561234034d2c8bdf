// Package dfs is the BeeGFS-like distributed file system the experiments
// deploy Pacon on: a centralized metadata server (MDS) holding the
// global namespace, a set of data servers striping file contents, and a
// client library that resolves paths component by component against the
// MDS — the synchronous, traversal-heavy metadata path whose saturation
// the paper's Figures 1, 2, 7 and 11 measure.
package dfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// MDS is the centralized metadata server. All metadata operations pass
// through its single service pool (cfg.Model.MDSWorkers wide), which is
// what limits client scalability in the BeeGFS baseline.
type MDS struct {
	tree  *namespace.Tree
	model vclock.LatencyModel
	res   *vclock.Resource

	lookups atomic.Int64
	reads   atomic.Int64
	writes  atomic.Int64

	// Multi-shard intent log (shardrpc.go): subtree root → protocol id.
	// intentN gates the scan of the table, so deployments that never
	// shard (or never rename across shards) pay, per mutating request,
	// an uncontended RLock/RUnlock of intentMu and one atomic load. A
	// mutation holds intentMu shared from its intent check until its
	// tree update is done, and whatever changes the table holds it
	// exclusively: when a prepare step has logged its intent, no
	// mutation that was checked against the table without it is still
	// in flight, so what the step then votes on or exports stays true.
	intentN  atomic.Int32
	intentMu sync.RWMutex
	intents  map[string]uint64
}

// inoShardShift places a shard's index in the high bits of every inode
// number it hands out, so numbers are unique across the shards of a
// cluster and a subtree moving between shards keeps its own.
const inoShardShift = 48

// newMDS creates shard `shard` of a metadata service.
func newMDS(name string, model vclock.LatencyModel, cred fsapi.Cred, shard int) *MDS {
	workers := model.MDSWorkers
	if workers <= 0 {
		workers = 4
	}
	return &MDS{
		tree:  namespace.NewTreeFrom(cred, uint64(shard)<<inoShardShift|1),
		model: model,
		res:   vclock.NewResource(name, workers),
	}
}

// Tree exposes the namespace for white-box assertions in tests and for
// checkpoint verification.
func (m *MDS) Tree() *namespace.Tree { return m.tree }

// Resource exposes the MDS service pool for utilization reporting.
func (m *MDS) Resource() *vclock.Resource { return m.res }

// MDSStats reports served op counts.
type MDSStats struct {
	Lookups, Reads, Writes int64
}

// Stats returns counters.
func (m *MDS) Stats() MDSStats {
	return MDSStats{Lookups: m.lookups.Load(), Reads: m.reads.Load(), Writes: m.writes.Load()}
}

// lookupCost models a dentry lookup at the given path depth: deeper
// entries are colder in the MDS-local file system (DESIGN.md §5), which
// is what makes the paper's Fig 2 loss super-linear.
func (m *MDS) lookupCost(depth int) vclock.Duration {
	return m.model.MDSReadCost + vclock.Duration(depth)*m.model.MDSLookupDepthCost
}

// checkParentWritable enforces the write permission on a mutation's
// parent directory.
func (m *MDS) checkParentWritable(op, p string, cred fsapi.Cred) error {
	dir, _ := namespace.Split(p)
	st, err := m.tree.Lookup(dir)
	if err != nil {
		return err
	}
	if !st.IsDir() {
		return fsapi.WrapPath(op, p, fsapi.ErrNotDir)
	}
	if !st.Mode.Allows(cred.ClassFor(st.UID, st.GID), fsapi.WantWrite|fsapi.WantExec) {
		return fsapi.WrapPath(op, p, fsapi.ErrPermission)
	}
	return nil
}

// applyOne applies one single-path mutation — the only statement of what
// create, mkdir, setstat, remove and rmdir mean on an MDS: each reaches
// it as an element of an apply_batch, alone or in a commit wave. It
// returns the inode the op created, set or unlinked (an rmdir's is
// zero). The caller holds intentMu shared.
func (m *MDS) applyOne(op fsapi.BatchOp, cred fsapi.Cred) (namespace.Inode, error) {
	if err := m.intentBlocked("apply", op.Path); err != nil {
		return namespace.Inode{}, err
	}
	switch op.Kind {
	case fsapi.BatchCreate, fsapi.BatchMkdir:
		name := "create"
		if op.Kind == fsapi.BatchMkdir {
			name, op.Stat.Type = "mkdir", fsapi.TypeDir
		} else {
			op.Stat.Type = fsapi.TypeFile
		}
		// Existence first (POSIX: mkdir/creat of an existing name is
		// EEXIST even in an unwritable parent).
		if m.tree.Exists(op.Path) {
			return namespace.Inode{}, fsapi.WrapPath(name, op.Path, fsapi.ErrExist)
		}
		if err := m.checkParentWritable(name, op.Path, cred); err != nil {
			return namespace.Inode{}, err
		}
		ino, err := m.tree.Add(op.Path, op.Stat, 0)
		return namespace.Inode{Ino: ino}, err
	case fsapi.BatchSetStat:
		ino, err := m.tree.SetStat(op.Path, op.Stat)
		return namespace.Inode{Ino: ino}, err
	case fsapi.BatchRemove:
		if err := m.checkParentWritable("remove", op.Path, cred); err != nil {
			return namespace.Inode{}, err
		}
		gone, err := m.tree.Remove(op.Path)
		if op.IfExists && errors.Is(err, fsapi.ErrNotExist) {
			// Net-absence remove: the coalescer folded a create+remove
			// pair, so the object may never have reached the DFS.
			return namespace.Inode{}, nil
		}
		return gone, err
	case fsapi.BatchRmdir:
		if err := m.checkParentWritable("rmdir", op.Path, cred); err != nil {
			return namespace.Inode{}, err
		}
		return namespace.Inode{}, m.tree.Rmdir(op.Path)
	default:
		return namespace.Inode{}, fsapi.WrapPath("apply_batch", op.Path, fmt.Errorf("unknown batch op kind %d", op.Kind))
	}
}

// pathArg reads a path off a request. Clients send canonical paths, but
// a frame is not trusted to: the intent table compares paths as strings
// and the tree canonicalizes whatever it is handed, so every check and
// every walk in a handler must see the one form both agree on.
func pathArg(d *wire.Decoder) string { return namespace.Clean(d.String()) }

// errDetail is the text that travels with a result code in a batched
// reply: only an error outside the sentinel set needs any.
func errDetail(code uint8, err error) string {
	if code == fsapi.CodeOther {
		return err.Error()
	}
	return ""
}

// encodeInodes appends a count-guarded list of inodes to be dropped.
func encodeInodes(e *wire.Encoder, ins []namespace.Inode) {
	e.Uvarint(uint64(len(ins)))
	for _, in := range ins {
		e.Uint64(in.Ino)
		e.Uvarint(uint64(in.Size))
	}
}

// decodeInodes reads what encodeInodes wrote, appending to ins.
func decodeInodes(d *wire.Decoder, ins []namespace.Inode) []namespace.Inode {
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		ins = append(ins, namespace.Inode{Ino: d.Uint64(), Size: int64(d.Uvarint())})
	}
	return ins
}

// Service exposes the MDS RPC methods.
func (m *MDS) Service() *rpc.Service {
	svc := rpc.NewService()

	// lookup: resolve one path (used per component by the client) to its
	// stat and inode number. The service cost grows with the looked-up
	// depth.
	svc.HandleInto("lookup", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		p := pathArg(d)
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.lookups.Add(1)
		done := m.res.Acquire(at, m.lookupCost(namespace.Depth(p)))
		st, ino, err := m.tree.LookupIno(p)
		if err != nil {
			return done, err
		}
		fsapi.EncodeStat(reply, st)
		reply.Uint64(ino)
		return done, nil
	})

	// stat_batch: resolve a batch of paths in one round trip — the
	// bulk miss-load of Pacon's read path. Each path reports its own
	// result code; the service pool is held once for the batch, but the
	// per-path lookup work (depth-dependent, like "lookup") still
	// accumulates.
	svc.HandleInto("stat_batch", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		paths := d.Strings()
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.lookups.Add(int64(len(paths)))
		var cost vclock.Duration
		for _, p := range paths {
			cost += m.lookupCost(namespace.Depth(p))
		}
		done := m.res.Acquire(at, cost)
		reply.Uvarint(uint64(len(paths)))
		for _, p := range paths {
			st, err := m.tree.Lookup(p)
			code := fsapi.CodeOf(err)
			reply.Byte(code)
			if code == fsapi.CodeOK {
				fsapi.EncodeStat(reply, st)
			} else {
				reply.String(errDetail(code, err))
			}
		}
		return done, nil
	})

	// apply_batch: independent-path mutations in one round trip — a
	// commit wave of Pacon's commit module, or one mutation on its own.
	// Each op is applied independently and reports its own result code
	// and, applied, the inode applyOne returned (a remove's with the
	// unlinked file's size, which tells the client whether to drop);
	// the batch succeeds at the RPC level even when individual ops fail,
	// so one ErrExist does not force the whole batch through the retry
	// path. A batch of one costs what a dedicated endpoint would: one
	// MDSWriteCost of service time, and — small batches decode into
	// stack scratch — no allocation beyond its path and its reply.
	svc.HandleInto("apply_batch", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		n := d.Count()
		var scratch [8]fsapi.BatchOp
		ops := scratch[:0]
		if n > len(scratch) {
			ops = make([]fsapi.BatchOp, 0, n)
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			op := fsapi.BatchOp{Kind: fsapi.BatchKind(d.Byte())}
			op.IfExists = d.Bool()
			op.Path = pathArg(d)
			op.Stat = fsapi.DecodeStat(d)
			ops = append(ops, op)
		}
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.writes.Add(int64(len(ops)))
		// The service pool is held once for the whole batch: server-side
		// work still scales with the op count, but the per-request
		// dispatch overhead is paid once.
		done := m.res.Acquire(at, m.model.MDSWriteCost*vclock.Duration(len(ops)))
		reply.Uvarint(uint64(len(ops)))
		m.intentMu.RLock()
		defer m.intentMu.RUnlock()
		for _, op := range ops {
			in, err := m.applyOne(op, cred)
			code := fsapi.CodeOf(err)
			reply.Byte(code)
			reply.String(errDetail(code, err))
			if code == fsapi.CodeOK {
				reply.Uint64(in.Ino)
				if op.Kind == fsapi.BatchRemove {
					reply.Uvarint(uint64(in.Size))
				}
			}
		}
		return done, nil
	})

	// rename: move a file or subtree (extension; the paper's evaluation
	// never renames, but the substrate supports it so Pacon can treat it
	// as a dependent operation).
	svc.HandleInto("rename", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		src := pathArg(d)
		dst := pathArg(d)
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.writes.Add(1)
		done := m.res.Acquire(at, m.model.MDSWriteCost)
		m.intentMu.RLock()
		defer m.intentMu.RUnlock()
		if err := m.intentBlocked("rename", src); err != nil {
			return done, err
		}
		if err := m.intentBlocked("rename", dst); err != nil {
			return done, err
		}
		if err := m.checkParentWritable("rename", src, cred); err != nil {
			return done, err
		}
		if err := m.checkParentWritable("rename", dst, cred); err != nil {
			return done, err
		}
		return done, m.tree.Rename(src, dst)
	})

	// rmtree: recursive removal, used by Pacon's commit module for
	// directory removal. Returns the removed paths (the commit module
	// mirrors the cleanup into the distributed cache) and the inodes of
	// the removed files that held bytes, with their sizes (the client
	// drops their chunks). Cost scales with the subtree size.
	svc.HandleInto("rmtree", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		p := pathArg(d)
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		// A multi-shard sweep brackets itself with an intent on p: its id
		// lets the sweep pass its own barrier, and the sweep — the finish
		// step of that protocol on this shard — releases it whatever the
		// outcome. 0 is a sweep that logged none.
		selfID := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.writes.Add(1)
		cost := m.model.MDSReadCost // what a refusal costs
		var removed []string
		var freed []namespace.Inode
		m.intentMu.RLock()
		err := m.intentBlockedExcept("rmtree", p, selfID)
		if err == nil {
			err = m.checkParentWritable("rmdir", p, cred)
		}
		if err == nil {
			removed, freed, err = m.tree.RemoveSubtree(p)
			cost = m.model.MDSWriteCost * vclock.Duration(1+len(removed))
		}
		m.intentMu.RUnlock()
		if selfID != 0 {
			m.delIntent(p, selfID)
		}
		done := m.res.Acquire(at, cost)
		if err != nil {
			return done, err
		}
		reply.Strings(removed)
		encodeInodes(reply, freed)
		return done, nil
	})

	// readdir: list a directory; cost scales with the entry count.
	svc.HandleInto("readdir", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		p := pathArg(d)
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.reads.Add(1)
		ents, err := m.tree.Readdir(p)
		cost := m.model.MDSReadCost + vclock.Duration(len(ents))*m.model.MDSReaddirEntryCost
		done := m.res.Acquire(at, cost)
		if err != nil {
			return done, err
		}
		reply.Uvarint(uint64(len(ents)))
		for _, ent := range ents {
			reply.String(ent.Name)
			reply.Byte(byte(ent.Type))
		}
		return done, nil
	})

	// Multi-shard coordination endpoints (shardrpc.go): the steps of the
	// two-phase protocol. Registered unconditionally — they are inert
	// unless an operation finds more than one shard to touch.
	m.shardHandlers(svc)

	return svc
}
