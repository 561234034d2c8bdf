package dfs

import (
	"errors"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Multi-shard coordination endpoints: the server side of the one
// two-phase protocol the client drives (router.go twoPhase) whenever an
// operation finds more than one shard to touch. Each participant
//
//	prepares  — votes, and logs an intent on the subtree root that
//	            blocks every other mutation overlapping it:
//	              xfer_prepare   cross-shard rename, on the source: the
//	                             source must exist under a writable
//	                             parent; replies with the subtree
//	                             exported pre-order
//	              rmdir_prepare  rmdir of a mirrored directory: locally
//	                             a directory, locally empty
//	              intent_put     rmtree of such a directory: no vote
//	finishes  — sweeps the subtree under its own intent and releases it,
//	            idempotently:
//	              intent_finish  rename (on the source) and rmdir
//	              rmtree         rmtree's sweep, which also answers with
//	                             the removed paths
//	or aborts — intent_del: releases the intent without mutating.
//
// Between prepare and finish a rename decides by xfer_apply on the
// destination shard (insert the exported entries, rolled back on partial
// failure); the other two decide by the votes alone.
//
// Intents are volatile: they live in MDS memory and are cleared on
// shard recovery (ClearIntents), which gives crash-restart the
// semantics of an implicit abort — a restarted source shard still holds
// its subtree and accepts mutations again. See DESIGN.md §10.

// intentBlocked reports whether p overlaps any active intent subtree:
// p inside an intent's root, or an intent's root inside p's subtree.
// Blocked operations fail with ErrStale, which the Pacon commit loop
// treats as resubmittable — the op retries after the intent releases.
// The caller holds intentMu shared, and keeps it until the mutation it
// is checking for is done.
func (m *MDS) intentBlocked(op, p string) error { return m.intentBlockedExcept(op, p, 0) }

// intentBlockedExcept is intentBlocked, except an intent rooted exactly
// at p carrying the given id does not block — the operation is the
// protocol step that logged it.
func (m *MDS) intentBlockedExcept(op, p string, id uint64) error {
	if m.intentN.Load() == 0 {
		return nil
	}
	for root, rid := range m.intents {
		if root == p && rid == id && id != 0 {
			continue
		}
		if root == p || namespace.IsUnder(p, root) || namespace.IsUnder(root, p) {
			return fsapi.WrapPath(op, p, fsapi.ErrStale)
		}
	}
	return nil
}

// putIntent logs an intent for root. It fails with ErrStale when a
// different intent already covers an overlapping subtree; re-putting
// the same (root, id) pair is idempotent. Taking intentMu exclusively
// waits out every mutation checked against the table as it was.
func (m *MDS) putIntent(op, root string, id uint64) error {
	m.intentMu.Lock()
	defer m.intentMu.Unlock()
	for r, rid := range m.intents {
		if r == root && rid == id {
			return nil
		}
		if r == root || namespace.IsUnder(root, r) || namespace.IsUnder(r, root) {
			return fsapi.WrapPath(op, root, fsapi.ErrStale)
		}
	}
	if m.intents == nil {
		m.intents = make(map[string]uint64)
	}
	m.intents[root] = id
	m.intentN.Add(1)
	return nil
}

// delIntent releases the intent for root if it carries the given id.
func (m *MDS) delIntent(root string, id uint64) {
	m.intentMu.Lock()
	if rid, ok := m.intents[root]; ok && rid == id {
		delete(m.intents, root)
		m.intentN.Add(-1)
	}
	m.intentMu.Unlock()
}

// ClearIntents drops every active intent — the crash-restart rule: the
// intent log is volatile, so a recovered shard comes back with every
// in-flight cross-shard protocol implicitly aborted on its side.
func (m *MDS) ClearIntents() {
	m.intentMu.Lock()
	n := len(m.intents)
	m.intents = nil
	m.intentN.Add(int32(-n))
	m.intentMu.Unlock()
}

// shardHandlers registers the multi-shard coordination endpoints on the
// MDS service.
func (m *MDS) shardHandlers(svc *rpc.Service) {
	// xfer_prepare: log the intent, validate src, export the subtree
	// pre-order as (relative path, stat, inode) triples — the inodes go
	// with the names, so the moved files' chunks stay where they are. The intent goes in first:
	// with it logged the subtree is still, so what is validated and
	// counted is what gets exported; any failure takes it back out.
	// Read-cost per exported entry — the export is a scan, not a
	// mutation.
	svc.HandleInto("xfer_prepare", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		src := pathArg(d)
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.reads.Add(1)
		if err := m.putIntent("rename", src, id); err != nil {
			return m.res.Acquire(at, m.model.MDSReadCost), err
		}
		n := 0
		err := m.checkParentWritable("rename", src, cred)
		if err == nil {
			err = m.tree.Walk(src, func(string, uint64, fsapi.Stat) error { n++; return nil })
		}
		reply.Uvarint(uint64(n))
		if err == nil {
			err = m.tree.Walk(src, func(p string, ino uint64, st fsapi.Stat) error {
				reply.String(p[len(src):]) // "" for src itself
				fsapi.EncodeStat(reply, st)
				reply.Uint64(ino)
				return nil
			})
		}
		done := m.res.Acquire(at, m.model.MDSReadCost*vclock.Duration(1+n))
		if err != nil {
			m.delIntent(src, id)
		}
		return done, err
	})

	// xfer_apply: insert the exported subtree under dst, each object under
	// the inode number it had on the source. Pre-order arrival means
	// parents land before children; a mid-stream failure rolls the
	// partial copy back so the destination never exposes a
	// half-materialized subtree (the numbers, and the chunks, still
	// belong to the source's copy).
	svc.HandleInto("xfer_apply", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		dst := pathArg(d)
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		n := d.Count()
		rels := make([]string, 0, n)
		stats := make([]fsapi.Stat, 0, n)
		inos := make([]uint64, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rels = append(rels, d.String())
			stats = append(stats, fsapi.DecodeStat(d))
			inos = append(inos, d.Uint64())
		}
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.writes.Add(int64(n))
		done := m.res.Acquire(at, m.model.MDSWriteCost*vclock.Duration(1+n))
		m.intentMu.RLock()
		defer m.intentMu.RUnlock()
		if err := m.intentBlocked("rename", dst); err != nil {
			return done, err
		}
		if m.tree.Exists(dst) {
			return done, fsapi.WrapPath("rename", dst, fsapi.ErrExist)
		}
		if err := m.checkParentWritable("rename", dst, cred); err != nil {
			return done, err
		}
		for i := range rels {
			if _, err := m.tree.Add(dst+rels[i], stats[i], inos[i]); err != nil {
				m.tree.RemoveSubtree(dst)
				return done, err
			}
		}
		return done, nil
	})

	// rmdir_prepare: this shard's vote on the rmdir of a mirrored
	// directory. It must be locally a dir and locally empty (a shard whose
	// mirror was never made votes yes — nothing under it can exist
	// here). The intent goes in before the vote is taken: once it is
	// logged nothing under the directory can change, so a yes stays true
	// until commit or abort; a no takes the intent back out.
	svc.HandleInto("rmdir_prepare", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		p := pathArg(d)
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.reads.Add(1)
		done := m.res.Acquire(at, m.model.MDSReadCost)
		if err := m.putIntent("rmdir", p, id); err != nil {
			return done, err
		}
		var err error
		if m.tree.Exists(p) {
			if err = m.checkParentWritable("rmdir", p, cred); err == nil {
				var ents []fsapi.DirEntry
				if ents, err = m.tree.Readdir(p); err == nil && len(ents) > 0 {
					err = fsapi.WrapPath("rmdir", p, fsapi.ErrNotEmpty)
				}
			}
		}
		if err != nil {
			m.delIntent(p, id)
		}
		return done, err
	})

	// intent_finish: the commit step of a rename (on its source shard)
	// and of a multi-shard rmdir — sweep whatever stands at p, a subtree
	// or a plain file, and release the intent. It frees no chunks: a
	// rename's sweep unlinks names whose inodes now live on the
	// destination, and an rmdir's finds its directory empty. For rmdir the removal is
	// a sweep and not a bare rmdir because every shard voted "empty" at
	// prepare: anything that appeared since is a straggler that lost the
	// race to the committed removal. Idempotent — a retried finish after
	// the subtree is already gone still releases the intent and succeeds
	// — and the intent goes whatever the outcome: the protocol is over
	// on this shard, and nothing would ever come back to release it.
	svc.HandleInto("intent_finish", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		p := pathArg(d)
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.writes.Add(1)
		removed, _, err := m.tree.RemoveSubtree(p)
		if errors.Is(err, fsapi.ErrNotDir) {
			removed = []string{p}
			_, err = m.tree.Remove(p)
		}
		if errors.Is(err, fsapi.ErrNotExist) {
			err = nil
		}
		m.delIntent(p, id)
		return m.res.Acquire(at, m.model.MDSWriteCost*vclock.Duration(1+len(removed))), err
	})

	// intent_put: rmtree's prepare — block creates under the doomed
	// subtree on every involved shard while the sweeps run. intent_del:
	// the abort step of every protocol — release without mutating.
	svc.HandleInto("intent_put", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		root := pathArg(d)
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, err
		}
		return m.res.Acquire(at, m.model.MDSReadCost), m.putIntent("rmtree", root, id)
	})
	svc.HandleInto("intent_del", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.NewDecoder(body)
		root := pathArg(d)
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, err
		}
		m.delIntent(root, id)
		return m.res.Acquire(at, m.model.MDSReadCost), nil
	})
}
