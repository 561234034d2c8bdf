package dfs

import (
	"errors"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Cross-shard coordination endpoints. A cross-shard rename moves a
// subtree between two shards' namespaces through a client-driven
// two-phase protocol:
//
//	xfer_prepare (src shard)  — validate the source, log an intent
//	                            blocking mutations under it, export the
//	                            subtree pre-order
//	xfer_apply   (dst shard)  — validate the destination, insert the
//	                            exported entries (rolled back on partial
//	                            failure)
//	xfer_finalize (src shard) — unlink the source subtree, release the
//	                            intent
//	intent_del   (src shard)  — abort: release the intent without
//	                            mutating
//
// A structural rmdir (a directory mirrored on every shard) runs
// rmdir_prepare / rmdir_commit across the pool (abort is intent_del
// again), and multi-shard rmtree brackets its sweeps with intent_put /
// intent_del.
//
// Intents are volatile: they live in MDS memory and are cleared on
// shard recovery (ClearIntents), which gives crash-restart the
// semantics of an implicit abort — a restarted source shard still holds
// its subtree and accepts mutations again. See DESIGN.md §10.

// intentBlocked reports whether p overlaps any active intent subtree:
// p inside an intent's root, or an intent's root inside p's subtree.
// Blocked operations fail with ErrStale, which the Pacon commit loop
// treats as resubmittable — the op retries after the intent releases.
func (m *MDS) intentBlocked(op, p string) error {
	if m.intentN.Load() == 0 {
		return nil
	}
	m.intentMu.Lock()
	defer m.intentMu.Unlock()
	for root := range m.intents {
		if root == p || namespace.IsUnder(p, root) || namespace.IsUnder(root, p) {
			return fsapi.WrapPath(op, p, fsapi.ErrStale)
		}
	}
	return nil
}

// intentBlockedExcept is intentBlocked, except an intent rooted exactly
// at p carrying the given id does not block — the operation is the
// protocol step that logged it.
func (m *MDS) intentBlockedExcept(op, p string, id uint64) error {
	if m.intentN.Load() == 0 {
		return nil
	}
	m.intentMu.Lock()
	defer m.intentMu.Unlock()
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
// the same (root, id) pair is idempotent.
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

// Intents returns the active intent count (white-box test hook).
func (m *MDS) Intents() int { return int(m.intentN.Load()) }

// shardHandlers registers the cross-shard coordination endpoints on the
// MDS service.
func (m *MDS) shardHandlers(svc *rpc.Service) {
	// xfer_prepare: validate src, log the intent, export the subtree
	// pre-order as (relative path, stat) pairs. Read-cost per exported
	// entry — the export is a scan, not a mutation.
	svc.Handle("xfer_prepare", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		src := d.String()
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		m.reads.Add(1)
		if err := m.checkParentWritable("rename", src, cred); err != nil {
			return m.res.Acquire(at, m.model.MDSReadCost), nil, err
		}
		if !m.tree.Exists(src) {
			return m.res.Acquire(at, m.model.MDSReadCost), nil, fsapi.WrapPath("rename", src, fsapi.ErrNotExist)
		}
		if err := m.putIntent("rename", src, id); err != nil {
			return m.res.Acquire(at, m.model.MDSReadCost), nil, err
		}
		n := 0
		if err := m.tree.Walk(src, func(string, fsapi.Stat) error { n++; return nil }); err != nil {
			m.delIntent(src, id)
			return m.res.Acquire(at, m.model.MDSReadCost), nil, err
		}
		e := wire.NewEncoder(8 + 96*n)
		e.Uvarint(uint64(n))
		err := m.tree.Walk(src, func(p string, st fsapi.Stat) error {
			e.String(p[len(src):]) // "" for src itself
			fsapi.EncodeStat(e, st)
			return nil
		})
		done := m.res.Acquire(at, m.model.MDSReadCost*vclock.Duration(1+n))
		if err != nil {
			m.delIntent(src, id)
			return done, nil, err
		}
		return done, e.Bytes(), nil
	})

	// xfer_apply: insert the exported subtree under dst. Pre-order
	// arrival means parents land before children; a mid-stream failure
	// rolls the partial copy back so the destination never exposes a
	// half-materialized subtree.
	svc.Handle("xfer_apply", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		dst := d.String()
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		n := d.Count()
		rels := make([]string, 0, n)
		stats := make([]fsapi.Stat, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rels = append(rels, d.String())
			stats = append(stats, fsapi.DecodeStat(d))
		}
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		m.writes.Add(int64(n))
		done := m.res.Acquire(at, m.model.MDSWriteCost*vclock.Duration(1+n))
		if err := m.intentBlocked("rename", dst); err != nil {
			return done, nil, err
		}
		if m.tree.Exists(dst) {
			return done, nil, fsapi.WrapPath("rename", dst, fsapi.ErrExist)
		}
		if err := m.checkParentWritable("rename", dst, cred); err != nil {
			return done, nil, err
		}
		for i := range rels {
			p := dst + rels[i]
			var err error
			if stats[i].IsDir() {
				err = m.tree.Mkdir(p, stats[i])
			} else {
				err = m.tree.Create(p, stats[i])
			}
			if err != nil {
				m.tree.RemoveSubtree(dst)
				return done, nil, err
			}
		}
		return done, nil, nil
	})

	// xfer_finalize: unlink the source subtree and release the intent.
	// Idempotent — a retried finalize after the subtree is already gone
	// still releases the intent and succeeds.
	svc.Handle("xfer_finalize", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		src := d.String()
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		m.writes.Add(1)
		removed, err := m.tree.RemoveSubtree(src)
		if errors.Is(err, fsapi.ErrNotDir) {
			// src is a plain file, not a subtree — unlink it directly.
			removed, err = []string{src}, m.tree.Remove(src)
		}
		if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			return m.res.Acquire(at, m.model.MDSWriteCost), nil, err
		}
		m.delIntent(src, id)
		return m.res.Acquire(at, m.model.MDSWriteCost*vclock.Duration(1+len(removed))), nil, nil
	})

	// rmdir_prepare: this shard's vote on a multi-shard rmdir. The
	// directory must be locally a dir and locally empty (a shard that
	// never materialized it votes yes — nothing under it can exist
	// here), and the intent blocks creates under it until commit/abort.
	svc.Handle("rmdir_prepare", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		p := d.String()
		cred := fsapi.Cred{UID: d.Uint32(), GID: d.Uint32()}
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		m.reads.Add(1)
		done := m.res.Acquire(at, m.model.MDSReadCost)
		if m.tree.Exists(p) {
			if err := m.checkParentWritable("rmdir", p, cred); err != nil {
				return done, nil, err
			}
			st, err := m.tree.Lookup(p)
			if err != nil {
				return done, nil, err
			}
			if !st.IsDir() {
				return done, nil, fsapi.WrapPath("rmdir", p, fsapi.ErrNotDir)
			}
			ents, err := m.tree.Readdir(p)
			if err != nil {
				return done, nil, err
			}
			if len(ents) > 0 {
				return done, nil, fsapi.WrapPath("rmdir", p, fsapi.ErrNotEmpty)
			}
		}
		return done, nil, m.putIntent("rmdir", p, id)
	})

	// rmdir_commit: unlink the local mirror and release the intent. The
	// removal is a subtree sweep, not a bare rmdir: every shard voted
	// "empty" at prepare, so anything that appeared since is a straggler
	// that lost the race to the committed removal.
	svc.Handle("rmdir_commit", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		p := d.String()
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		m.writes.Add(1)
		if m.tree.Exists(p) {
			if _, err := m.tree.RemoveSubtree(p); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
				m.delIntent(p, id)
				return m.res.Acquire(at, m.model.MDSWriteCost), nil, err
			}
		}
		m.delIntent(p, id)
		return m.res.Acquire(at, m.model.MDSWriteCost), nil, nil
	})

	// intent_put / intent_del: bare intent bracketing for multi-shard
	// rmtree — block creates under the doomed subtree on every involved
	// shard while the sweeps run. intent_del is also the abort step of
	// the rename and rmdir protocols: release without mutating.
	svc.Handle("intent_put", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		root := d.String()
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		return m.res.Acquire(at, m.model.MDSReadCost), nil, m.putIntent("rmtree", root, id)
	})
	svc.Handle("intent_del", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		d := wire.NewDecoder(body)
		root := d.String()
		id := d.Uvarint()
		if err := d.Finish(); err != nil {
			return at, nil, err
		}
		m.delIntent(root, id)
		return m.res.Acquire(at, m.model.MDSReadCost), nil, nil
	})
}
