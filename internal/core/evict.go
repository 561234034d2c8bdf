package core

import (
	"pacon/internal/fsapi"
	"pacon/internal/memcache"
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
	target := namespace.Join(r.cfg.Workspace, pick.Name)
	return r.evictSubtree(c, at, target, pick.Type == fsapi.TypeDir)
}

// evictSubtree walks the committed subtree on the DFS and deletes every
// clean cache entry under it.
func (r *Region) evictSubtree(c *Client, at vclock.Time, p string, isDir bool) (vclock.Time, error) {
	if isDir {
		ents, done, err := c.backend.Readdir(at, p)
		at = done
		if err != nil {
			return at, err
		}
		for _, ent := range ents {
			var eerr error
			at, eerr = r.evictSubtree(c, at, namespace.Join(p, ent.Name), ent.Type == fsapi.TypeDir)
			if eerr != nil {
				return at, eerr
			}
		}
	}
	// Guarded delete: only a clean (committed) entry may go. A client
	// write that dirties the entry makes it the primary copy again, and
	// an unconditional delete would lose it forever; CondClean is
	// evaluated under the server's shard lock.
	err := r.deleteIf(c.cache, &at, p, memcache.CondClean, 0)
	return at, err
}
