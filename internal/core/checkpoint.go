package core

import (
	"errors"
	"fmt"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// Checkpointing (paper §III.G): a region can snapshot its workspace
// subtree on the DFS and later roll back to it after a client-node
// failure loses uncommitted operations. Only the application's workspace
// is checkpointed, not the whole namespace, and the interface is exposed
// to applications so they choose intervals. A checkpoint is a copy of the
// workspace, metadata and bytes: the DFS keys a file's data by its inode,
// and a copied file is a new inode, so its bytes are copied with it — the
// checkpoint holds the workspace as it was, whatever later writes do to
// the originals, and a restore copies them back the same way.

// ckptRoot is where checkpoints live on the DFS.
const ckptRoot = "/.pacon"

func (r *Region) ckptPath(seq uint64) string {
	return fmt.Sprintf("%s/ckpt-%s-%d", ckptRoot, r.cfg.Name, seq)
}

// mkdirIgnoreExist creates a directory, tolerating its presence.
func mkdirIgnoreExist(b Backend, at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	done, err := applyOne(b, at, fsapi.BatchOp{Kind: fsapi.BatchMkdir, Path: p, Stat: st})
	if err != nil && !errors.Is(err, fsapi.ErrExist) {
		return done, err
	}
	return done, nil
}

// copyPiece is how many bytes copyFile moves per read and write.
const copyPiece = 1 << 20

// copySubtree duplicates the subtree rooted at src to dst: every object's
// metadata, and every file's bytes.
func copySubtree(b Backend, at vclock.Time, src, dst string) (vclock.Time, error) {
	st, at, err := b.Stat(at, src)
	if err != nil {
		return at, err
	}
	if !st.IsDir() {
		if at, err = applyOne(b, at, fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: dst, Stat: st}); err != nil {
			return at, err
		}
		return copyFile(b, at, src, dst, st.Size)
	}
	if at, err = mkdirIgnoreExist(b, at, dst, st); err != nil {
		return at, err
	}
	ents, at, err := b.Readdir(at, src)
	if err != nil {
		return at, err
	}
	for _, ent := range ents {
		at, err = copySubtree(b, at, namespace.Join(src, ent.Name), namespace.Join(dst, ent.Name))
		if err != nil {
			return at, err
		}
	}
	return at, nil
}

// copyFile copies the size bytes of src into dst, which has that size
// already, a piece at a time.
func copyFile(b Backend, at vclock.Time, src, dst string, size int64) (vclock.Time, error) {
	for off := int64(0); off < size; off += copyPiece {
		data, done, err := b.ReadAt(at, src, off, int(min(copyPiece, size-off)))
		if err != nil {
			return done, err
		}
		if at, err = b.WriteAt(done, dst, off, data); err != nil {
			return at, err
		}
	}
	return at, nil
}

// Checkpoint drains the region (barrier) and copies the workspace
// subtree into the checkpoint area, returning the checkpoint sequence
// number to roll back to.
func (r *Region) Checkpoint(c *Client, at vclock.Time) (uint64, vclock.Time, error) {
	seq := r.ckptSeq.Add(1)
	// Whole-workspace snapshot: every queue must drain (full barrier).
	epoch, drain, err := r.syncBarrier(at, "")
	if err != nil {
		return 0, at, err
	}
	at = drain

	dirStat := fsapi.NewDirStat(r.cfg.Cred, 0o700)
	if at, err = mkdirIgnoreExist(c.backend, at, ckptRoot, dirStat); err != nil {
		r.barrier.Release(epoch, at)
		return 0, at, err
	}
	at, err = copySubtree(c.backend, at, r.cfg.Workspace, r.ckptPath(seq))
	r.barrier.Release(epoch, at)
	if err != nil {
		return 0, at, err
	}
	return seq, at, nil
}

// Restore rolls the workspace back to checkpoint seq and rebuilds the
// distributed cache (cold: entries reload on demand). Call it after
// SimulateNodeFailure, or any time the application wants the snapshot
// back.
func (r *Region) Restore(c *Client, at vclock.Time, seq uint64) (vclock.Time, error) {
	epoch, drain, err := r.syncBarrier(at, "")
	if err != nil {
		return at, err
	}
	at = drain
	defer func() { r.barrier.Release(epoch, at) }()

	src := r.ckptPath(seq)
	rootStat, done, err := c.backend.Stat(at, src)
	at = done
	if err != nil {
		return at, fsapi.WrapPath("restore", src, err)
	}

	// Drop the current workspace contents (the root itself stays — the
	// application may not own its parent directory) and every cache
	// entry.
	cur, done, err := c.backend.Readdir(at, r.cfg.Workspace)
	at = done
	if err != nil {
		return at, err
	}
	for _, ent := range cur {
		child := namespace.Join(r.cfg.Workspace, ent.Name)
		if ent.Type == fsapi.TypeDir {
			_, done, err = c.backend.RmTree(at, child)
		} else {
			done, err = applyOne(c.backend, at, fsapi.BatchOp{Kind: fsapi.BatchRemove, Path: child})
		}
		at = done
		if err != nil {
			return at, err
		}
	}
	if done, err := c.cache.FlushAll(at); err != nil {
		return done, err
	} else {
		at = done
	}

	// Recreate the workspace contents from the checkpoint.
	ents, done, err := c.backend.Readdir(at, src)
	at = done
	if err != nil {
		return at, err
	}
	for _, ent := range ents {
		at, err = copySubtree(c.backend, at, namespace.Join(src, ent.Name), namespace.Join(r.cfg.Workspace, ent.Name))
		if err != nil {
			return at, err
		}
	}

	// Re-seed the workspace metadata (region init does the same).
	at, err = seedRoot(c.cache, at, r.cfg.Workspace, rootStat)
	return at, err
}

// SimulateNodeFailure models a client-node crash for recovery tests and
// examples: the node's queued (uncommitted) operations are lost, its
// cache server's contents vanish and its clients' crossings end — a
// writer waiting on one of their claims takes it back at once. It returns
// how many ops were lost: of the node's at_risk_ops the queued ones only —
// an op already in a wave or parked stays with the commit process, which
// this simulation leaves running. Must not race an in-flight barrier
// operation — a real deployment would re-form the region first.
func (r *Region) SimulateNodeFailure(node string) int {
	n := r.byName[node]
	if n == nil {
		return 0
	}
	lost := 0
	for {
		op, barrier, _, ok := n.queue.TryPop()
		if !ok {
			break
		}
		if !barrier {
			lost++
			// The popped op will never reach a commit-loop terminal: this
			// is its terminal, or scoped barriers would keep waiting on
			// the dead node's paths, the staleness watermark would grow
			// forever, its sampled span would never close and what it
			// fsynced would wait for a create that never lands.
			r.opTerminal(op, op.Time, obs.StageDrop, "node failure")
		}
	}
	n.inflight.claim(0, false)
	n.cache.FlushAll(0)
	return lost
}
