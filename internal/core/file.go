package core

import (
	"errors"

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

// spliceInline writes data into buf at off, growing it as needed.
func spliceInline(buf []byte, off int64, data []byte) []byte {
	need := int(off) + len(data)
	if len(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	} else {
		buf = append([]byte(nil), buf...)
	}
	copy(buf[off:], data)
	return buf
}

// Write writes data at off. Small files update inline content in the
// cache (CAS retry loop) with an asynchronous backup write; crossing the
// threshold materializes the file on the DFS synchronously.
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

	for {
		item, done, err := c.cache.Get(at, p)
		at = done
		if err != nil {
			if !errors.Is(err, fsapi.ErrNotExist) {
				return at, err
			}
			// Not cached: pull the metadata in and retry.
			if _, at, err = c.loadMiss(at, "write", p); err != nil {
				return at, err
			}
			continue
		}
		v, derr := decodeCacheVal(item.Value)
		if derr != nil {
			return at, derr
		}
		if v.removed {
			return at, fsapi.WrapPath("write", p, fsapi.ErrNotExist)
		}
		if v.stat.IsDir() {
			return at, fsapi.WrapPath("write", p, fsapi.ErrIsDir)
		}

		if v.large {
			done, werr := c.backend.WriteAt(at, p, off, data)
			at = done
			if werr != nil {
				return at, werr
			}
			// Keep the cached size fresh (clean: the DFS applied it).
			if end := off + int64(len(data)); end > v.stat.Size {
				v.stat.Size = end
				if _, done, cerr := c.cache.CAS(at, p, v.encode(), 0, item.CAS); cerr == nil {
					at = done
				}
			}
			return at, nil
		}

		if int64(len(v.stat.Inline)) < v.stat.Size {
			// Loaded from the DFS without its data (cache-miss path, e.g.
			// after the clean entry was evicted): pull the bytes in before
			// splicing, or the write would zero-fill everything outside
			// its own range and commit that back over the real content.
			buf, done, rerr := c.backend.ReadAt(at, p, 0, int(v.stat.Size))
			at = done
			if rerr != nil {
				return at, fsapi.WrapPath("write", p, rerr)
			}
			v.stat.Inline = buf
		}

		if int(off)+len(data) <= r.cfg.SmallFileThreshold {
			// Stay inline: CAS the new content, enqueue the backup write.
			seq := r.seq.Add(1)
			v.stat.Inline = spliceInline(v.stat.Inline, off, data)
			if sz := int64(len(v.stat.Inline)); sz > v.stat.Size {
				v.stat.Size = sz
			}
			v.dirty = true
			v.seq = seq
			_, done, cerr := c.cache.CAS(at, p, v.encode(), 0, item.CAS)
			at = done
			if cerr == nil {
				return c.pushOp(at, OpSetStat, p, v.stat, seq)
			}
			if errors.Is(cerr, fsapi.ErrStale) || errors.Is(cerr, fsapi.ErrNotExist) {
				continue // concurrent writer won; retry (§III.D.3)
			}
			if errors.Is(cerr, fsapi.ErrOutOfSpace) {
				// The grown value does not fit the node's budget: same
				// policy as insert — make room, then re-examine (the
				// round may have evicted this very entry while clean).
				if at, cerr = r.evictRound(c, at); cerr == nil {
					continue
				}
			}
			return at, cerr
		}

		// Crossing the threshold: materialize on the DFS now.
		return c.growToLarge(at, p, item.CAS, v, off, data)
	}
}

// growToLarge materializes a small file on the DFS (create if the async
// create has not landed yet, flush inline bytes, write the new data) and
// flips the cache entry to large.
func (c *Client) growToLarge(at vclock.Time, p string, cas uint64, v cacheVal, off int64, data []byte) (vclock.Time, error) {
	st := v.stat
	st.Inline = nil
	done, err := applyOne(c.backend, at, fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: p, Stat: st})
	at = done
	if err != nil && !errors.Is(err, fsapi.ErrExist) {
		return at, fsapi.WrapPath("write", p, err)
	}
	if len(v.stat.Inline) > 0 {
		if done, err = c.backend.WriteAt(at, p, 0, v.stat.Inline); err != nil {
			return done, err
		}
		at = done
	}
	if done, err = c.backend.WriteAt(at, p, off, data); err != nil {
		return done, err
	}
	at = done

	v.large = true
	v.dirty = false // the DFS now holds the authoritative copy
	v.stat.Inline = nil
	if end := off + int64(len(data)); end > v.stat.Size {
		v.stat.Size = end
	}
	// Flip the cache entry to large. A CAS conflict can come from a
	// concurrent writer or from the commit process clearing the dirty
	// bit; retry from a fresh read until the entry reflects the
	// transition (§III.D.3).
	for {
		_, done, cerr := c.cache.CAS(at, p, v.encode(), 0, cas)
		at = done
		if cerr == nil || errors.Is(cerr, fsapi.ErrNotExist) {
			return at, nil
		}
		if !errors.Is(cerr, fsapi.ErrStale) {
			return at, cerr
		}
		item, done, gerr := c.cache.Get(at, p)
		at = done
		if gerr != nil {
			return at, nil // entry vanished (evicted/removed); the DFS holds truth
		}
		cur, derr := decodeCacheVal(item.Value)
		if derr != nil {
			return at, derr
		}
		if cur.large && cur.stat.Size >= v.stat.Size {
			return at, nil // another writer finished the transition
		}
		cur.large = true
		cur.dirty = false
		cur.stat.Inline = nil
		if cur.stat.Size < v.stat.Size {
			cur.stat.Size = v.stat.Size
		}
		v = cur
		cas = item.CAS
	}
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
// on the DFS or will be carried by the pending backup write.
func (c *Client) Fsync(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("fsync", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		return at, nil // large/outside files write through already
	}
	item, done, err := c.cache.Get(at, p)
	at = done
	if err != nil {
		if errors.Is(err, fsapi.ErrNotExist) {
			return at, fsapi.WrapPath("fsync", p, fsapi.ErrNotExist)
		}
		return at, err
	}
	v, derr := decodeCacheVal(item.Value)
	if derr != nil {
		return at, derr
	}
	if v.removed {
		return at, fsapi.WrapPath("fsync", p, fsapi.ErrNotExist)
	}
	if v.dirty && !v.large && len(v.stat.Inline) > 0 {
		r.spillPut(p, v.stat.Inline)
		// Direct I/O to the local cache file: charge one local device op.
		at = at.Add(r.cfg.Model.DataChunkCost + vclock.Duration(int64(r.cfg.Model.DataPerKB)*int64(len(v.stat.Inline))/1024))
	}
	return at, nil
}
