package core

import (
	"fmt"
	"sort"

	"pacon/internal/fsapi"
)

// CacheEntry is one decoded distributed-cache entry, exposed for
// white-box verification: the chaos harness oracle and regression tests
// assert invariants over the full cache image (no dirty entries after a
// drain, every clean entry backed on the DFS, ...).
type CacheEntry struct {
	Path    string
	Dirty   bool
	Removed bool
	Large   bool
	Seq     uint64
	Stat    fsapi.Stat
}

func (v cacheVal) entry(path string) CacheEntry {
	return CacheEntry{Path: path, Dirty: v.dirty, Removed: v.removed, Large: v.large, Seq: v.seq, Stat: v.stat}
}

// DumpCache snapshots and decodes every entry across the region's cache
// servers, sorted by path. Verification-only: it reads the servers
// directly and charges no virtual time. Concurrent mutation yields a
// per-shard-consistent (not globally atomic) snapshot — quiesce the
// region (Drain) before asserting global invariants.
func (r *Region) DumpCache() ([]CacheEntry, error) {
	var out []CacheEntry
	var derr error
	for _, n := range r.nodes {
		n.cache.Scan(func(key string, raw []byte) bool {
			if v, err := decodeCacheVal(raw); err != nil {
				derr = fmt.Errorf("cache entry %s: %w", key, err)
			} else {
				out = append(out, v.entry(key))
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, derr
}
