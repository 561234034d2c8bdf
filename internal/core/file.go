package core

import (
	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/vclock"
)

// Files in Pacon are small or large (§III.D.2). Small files (data ≤
// SmallFileThreshold) keep their bytes inline with the metadata in the
// distributed cache, so one KV request returns both; their backup copy
// is written to the DFS asynchronously. A file that outgrows the
// threshold is materialized on the DFS immediately and all further data
// operations are redirected there.

// Write writes data at off. Small files update inline content in the
// cache with an asynchronous backup write; crossing the threshold
// materializes the file on the DFS synchronously; a large file is
// written through.
func (c *Client) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("write", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		if _, merged := r.mergedFor(p); merged {
			return at, fsapi.WrapPath("write", p, fsapi.ErrReadOnly)
		}
		return c.backend.WriteAt(at, p, off, data)
	}
	at, err := c.checkPerm(at, p, fsapi.WantWrite)
	if err != nil {
		return at, err
	}

	seq := r.seq.Add(1)
	if off+int64(len(data)) > int64(r.cfg.SmallFileThreshold) {
		// Only such a write can claim a crossing: it is on record until it
		// returns, for the writers that meet its claim (Client.mutate).
		c.node.inflight.claim(seq, true)
		defer c.node.inflight.claim(seq, false)
	}
	out, at, err := c.mutate(at, &event{kind: evWrite, op: "write", path: p, seq: seq, off: off, data: data})
	switch {
	case err != nil || out.enqueue:
		return at, err // inline: the backup write is queued
	case out.verdict == vKeep:
		return c.writeThrough(at, p, off, data)
	default:
		return c.growToLarge(at, p, out.val, off, data)
	}
}

// writeThrough writes to a large file on the DFS and keeps the cached
// size fresh.
func (c *Client) writeThrough(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	at, err := c.backend.WriteAt(at, p, off, data)
	if err != nil {
		return at, err
	}
	_, at, err = c.mutate(at, &event{kind: evSizeBump, op: "write", path: p, size: off + int64(len(data))})
	return at, err
}

// growToLarge takes a claimed entry (claim, as WriteAt's claim stored it)
// through the threshold crossing. With the claim in place nothing new can
// be queued for the path, so draining it first means every op acked
// before the claim — the create, backup writes of older inline content,
// an earlier incarnation's remove — has reached the DFS before the file
// is written there, and none can land on top of it afterwards. Then the
// file is materialized (created if no queued create did it, inline bytes
// flushed, the new data written) and the entry concluded: large and
// clean, or — the DFS failed — rolled back to the small dirty entry, with
// the write's error.
func (c *Client) growToLarge(at vclock.Time, p string, claim cacheVal, off int64, data []byte) (vclock.Time, error) {
	r := c.region
	end := event{kind: evGrown, op: "write", path: p, seq: claim.seq, size: off + int64(len(data))}
	at, werr := r.drainPath(at, p)
	if werr == nil {
		at, werr = c.materialize(at, p, claim.stat, off, data)
	}
	if werr != nil {
		end.kind = evRollback
	}
	_, at, err := c.mutate(at, &end)
	if werr != nil {
		err = werr
	}
	return at, err
}

// materialize puts a small file and the write that outgrew it on the DFS.
func (c *Client) materialize(at vclock.Time, p string, st fsapi.Stat, off int64, data []byte) (vclock.Time, error) {
	inline := st.Inline
	st.Inline = nil
	// After the drain the file is missing only if its queued create was
	// dropped. Whatever this create answers — the file exists, as a rule —
	// the write is what must succeed, and it fails if the file is not there.
	at, _ = applyOne(c.backend, at, fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: p, Stat: st})
	if int64(len(inline)) >= st.Size {
		// The entry held the whole file: one write carries it and the new
		// data, the gap between them zero-filled. (An entry loaded without
		// its bytes has them on the DFS already.)
		data, off = spliceInline(inline, off, data), 0
	}
	return c.backend.WriteAt(at, p, off, data)
}

// Read returns up to n bytes at off. Small files are served from the
// inline copy in one cache request ("applications can get both metadata
// and data in a single KV request", §III.D.2); large files read from the
// DFS.
func (c *Client) ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("read", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		if m, ok := r.mergedFor(p); ok {
			return c.readMerged(at, m, p, off, n)
		}
		return c.backend.ReadAt(at, p, off, n)
	}
	at, err := c.checkPerm(at, p, fsapi.WantRead)
	if err != nil {
		return nil, at, err
	}
	st, at, err := c.Stat(at, p)
	if err != nil {
		return nil, at, err
	}
	if st.IsDir() {
		return nil, at, fsapi.WrapPath("read", p, fsapi.ErrIsDir)
	}
	if st.Size <= int64(r.cfg.SmallFileThreshold) {
		if int64(len(st.Inline)) < st.Size {
			// Loaded from the DFS without its data (cache-miss path):
			// fetch the bytes once.
			return c.backend.ReadAt(at, p, off, n)
		}
		// A claimed entry is still small here: it serves the acked inline
		// content until the claimant's final store.
		return sliceInline(st.Inline, off, n), at, nil
	}
	return c.backend.ReadAt(at, p, off, n)
}

func (c *Client) readMerged(at vclock.Time, m remoteRegion, p string, off int64, n int) ([]byte, vclock.Time, error) {
	st, done, err := c.statMerged(at, m, p)
	at = done
	if err != nil {
		return nil, at, err
	}
	if int64(len(st.Inline)) >= st.Size {
		return sliceInline(st.Inline, off, n), at, nil
	}
	return c.backend.ReadAt(at, p, off, n)
}

func sliceInline(inline []byte, off int64, n int) []byte {
	if off >= int64(len(inline)) {
		return nil
	}
	end := off + int64(n)
	if end > int64(len(inline)) {
		end = int64(len(inline))
	}
	out := make([]byte, end-off)
	copy(out, inline[off:end])
	return out
}

// Fsync makes a file's data durable now. For a small file whose create
// has not committed yet, the data is spilled locally with direct I/O and
// written back to its original position after the create commits
// (§III.D.2); a clean or large file needs nothing — its data is already
// on the DFS or will be carried by the pending backup write. The spill
// joins the path's in-flight record on a node that has the file pending,
// tagged with the entry's seq, and goes with that incarnation (opTerminal);
// a dirty entry with nothing pending anywhere has just landed and owes none.
func (c *Client) Fsync(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("fsync", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		return at, nil // large/outside files write through already
	}
	v, present, at, err := readEntry(c.cache, at, p)
	if err == nil && (!present || v.removed) {
		err = fsapi.WrapPath("fsync", p, fsapi.ErrNotExist)
	}
	if err != nil {
		return at, err
	}
	if v.dirty && !v.large && len(v.stat.Inline) > 0 {
		for _, n := range r.nodes {
			if n.inflight.putSpill(p, v.seq, v.stat.Inline) {
				// Direct I/O to the local cache file: charge one local device op.
				at = at.Add(r.cfg.Model.DataChunkCost + vclock.Duration(int64(r.cfg.Model.DataPerKB)*int64(len(v.stat.Inline))/1024))
				break
			}
		}
	}
	return at, nil
}
