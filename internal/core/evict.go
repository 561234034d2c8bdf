package core

import (
	"errors"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/vclock"
)

// evictRound frees cache space using the paper's simple policy (§III.F):
// pick the next entry under the consistent region's root round-robin and
// evict the committed metadata under/of it. Only clean (committed)
// entries are removed — dirty entries are the primary copy of data the
// DFS does not have yet.
func (r *Region) evictRound(c *Client, at vclock.Time) (vclock.Time, error) {
	r.evictMu.Lock()
	defer r.evictMu.Unlock()
	r.evictions.Add(1)

	ents, done, err := c.backend.Readdir(at, r.cfg.Workspace)
	at = done
	if err != nil {
		return at, err
	}
	if len(ents) == 0 {
		return at, fsapi.WrapPath("evict", r.cfg.Workspace, fsapi.ErrOutOfSpace)
	}
	// Round-robin selection: a different entry than last time, which
	// alleviates thrashing (§III.F). Readdir lists in name order, so the
	// first name after the last-evicted one continues the rotation even
	// when entries appeared or vanished since the previous round (an
	// index cursor over a re-read listing skips or repeats entries).
	pick := ents[0]
	for _, ent := range ents {
		if ent.Name > r.evictLast {
			pick = ent
			break
		}
	}
	r.evictLast = pick.Name
	return r.evictSubtree(c, at, namespace.Join(r.cfg.Workspace, pick.Name), pick.Type == fsapi.TypeDir)
}

// evictChunk caps how many paths one mutate_multi fan-out of a subtree
// delete carries (eviction here, rmdir and rename in dropCached), which
// bounds the region's scratch slice, the request frames, and how long
// one request holds a cache server's worker (its share of the chunk ×
// CacheOpCost).
const evictChunk = 1024

// evictSubtree deletes every clean cache entry of the committed subtree
// at p: it walks the DFS listing into r.evictPaths and deletes in
// fan-outs of at most evictChunk paths. The caller holds evictMu.
func (r *Region) evictSubtree(c *Client, at vclock.Time, p string, isDir bool) (vclock.Time, error) {
	r.evictPaths = r.evictPaths[:0]
	at, err := r.evictWalk(c, at, p, isDir)
	if err != nil {
		return at, err
	}
	return r.evictFlush(c, at)
}

// evictWalk appends p's subtree to r.evictPaths, children before their
// directory, flushing whenever a chunk fills.
func (r *Region) evictWalk(c *Client, at vclock.Time, p string, isDir bool) (vclock.Time, error) {
	if isDir {
		ents, done, err := c.backend.Readdir(at, p)
		at = done
		// A directory rmdir'd since it was listed has nothing left to
		// evict — its subtree's entries went with it: an empty listing,
		// not a failure of the client operation that needed room.
		if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			return at, err
		}
		for _, ent := range ents {
			if at, err = r.evictWalk(c, at, namespace.Join(p, ent.Name), ent.Type == fsapi.TypeDir); err != nil {
				return at, err
			}
		}
	}
	r.evictPaths = append(r.evictPaths, p)
	if len(r.evictPaths) < evictChunk {
		return at, nil
	}
	return r.evictFlush(c, at)
}

// evictFlush deletes every clean cache entry among r.evictPaths with
// one mutate_multi round trip per owning cache server, and empties
// the slice. The delete is guarded: only a clean (committed) entry may
// go. A client write that dirties the entry makes it the primary copy
// again, and an unconditional delete would lose it forever; the evEvict
// row runs per key under the server's shard lock.
func (r *Region) evictFlush(c *Client, at vclock.Time) (vclock.Time, error) {
	deleted, owners, done, err := settlePaths(c.cache, at, r.evictPaths, evEvict)
	r.evictPaths = r.evictPaths[:0]
	r.cacheRPCs.Add(int64(owners))
	r.evictedKeys.Add(int64(deleted))
	return done, err
}
