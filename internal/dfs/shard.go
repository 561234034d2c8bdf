package dfs

import "pacon/internal/namespace"

// ShardMap partitions the namespace across a set of MDS shards by
// directory subtree. It is a function of the path and nothing else: the
// shard addresses and spread roots are fixed at construction, and two
// maps built from the same inputs answer every path alike, so every
// client of a cluster agrees without talking to the others. The map
// distinguishes two zones:
//
//   - Structural paths — the spread roots (workspace-style directories
//     registered at deployment time, plus "/" always) and their
//     ancestors. These directories are mirrored on every shard, so any
//     shard can check parent writability locally and any mirror answers
//     a read. Mutating a structural path, or an operation on a whole
//     structural directory, fans out to all shards.
//
//   - Hash zone — each immediate child subtree of a structural directory
//     hashes as one unit (FNV-32a of the child prefix, mod shard count).
//     Everything deeper inherits that shard — the MIDAS-style parent
//     affinity that keeps a hot directory's traversal on one server —
//     while sibling subtrees still spread across the pool. A hash-zone
//     directory therefore lives, whole, on one shard.
//
// Every cluster routes by one of these, a single MDS included: a
// one-shard map has one answer for every path and gives it without
// looking at the path (route), so nothing on it is ever mirrored, fanned
// out or voted on — the client code that handles several targets simply
// never sees more than one.
type ShardMap struct {
	addrs  []string
	spread []string // mirrored structural roots, each cleaned; "/" implied
}

// NewShardMap builds a shard map over the given shard service addresses.
// spreadRoots lists the directories whose children should spread across
// the pool (the root "/" always behaves as one).
func NewShardMap(addrs []string, spreadRoots []string) *ShardMap {
	s := &ShardMap{addrs: append([]string(nil), addrs...)}
	for _, r := range spreadRoots {
		r = namespace.Clean(r)
		if r != "/" {
			s.spread = append(s.spread, r)
		}
	}
	return s
}

// N returns the shard count.
func (s *ShardMap) N() int { return len(s.addrs) }

// structural reports whether p is mirrored on every shard: a spread
// root, an ancestor of one, or the root itself.
func (s *ShardMap) structural(p string) bool {
	if p == "/" {
		return true
	}
	for _, r := range s.spread {
		if r == p || namespace.IsUnder(r, p) {
			return true
		}
	}
	return false
}

// hashPrefix returns the length of p's hash unit: the prefix covering
// the first component below p's deepest structural ancestor. Hashing
// p[:hashPrefix(p)] gives every path in a subtree the same shard.
func (s *ShardMap) hashPrefix(p string) int {
	base := 0 // length of the deepest structural ancestor; 0 is "/"
	for _, r := range s.spread {
		base = max(base, sharedDir(p, r))
	}
	// The hash unit ends at the first '/' after the structural ancestor.
	for i := base + 1; i < len(p); i++ {
		if p[i] == '/' {
			return i
		}
	}
	return len(p)
}

// sharedDir returns the length of the deepest directory that is p or an
// ancestor of p and also r or an ancestor of r — 0 when that is "/". Both
// paths are clean. Every ancestor of a spread root is structural, so for
// a spread root r this is the deepest structural ancestor of p that r
// accounts for.
func sharedDir(p, r string) int {
	base := 0
	for i := 1; i <= len(p) && i <= len(r); i++ {
		if (i == len(p) || p[i] == '/') && (i == len(r) || r[i] == '/') {
			base = i
		}
		if i == len(p) || i == len(r) || p[i] != r[i] {
			break
		}
	}
	return base
}

// Owner returns the shard index owning p. Structural paths report
// shard 0 (their canonical mirror).
func (s *ShardMap) Owner(p string) int { return max(s.route(p), 0) }

// route returns the shard a single-path operation on p goes to, or -1
// when p is mirrored on every shard (a mutation then goes to all of
// them, a read to any one). With one shard there is nothing to decide.
func (s *ShardMap) route(p string) int {
	if len(s.addrs) == 1 {
		return 0
	}
	if s.structural(p) {
		return -1
	}
	// Inline FNV-32a over the hash unit: zero-alloc on the hot path.
	end := s.hashPrefix(p)
	h := uint32(2166136261)
	for i := 0; i < end; i++ {
		h ^= uint32(p[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.addrs)))
}

// shardGroup is one shard's share of a batch: the positions, ascending,
// of the paths that go to the shard at addr.
type shardGroup struct {
	addr string
	idx  []int
}

// group buckets the positions 0 … n-1 of a batch by shard: one group per
// shard touched, in shard order. shardOf names position i's shard, or a
// negative number to leave i out. Every idx is a window of one backing
// array and no map is built — shard indices are small integers, which is
// dht.GroupByOwner's lesson applied to the other multi-server client.
// Results land by position, so the order means nothing to a caller.
func (s *ShardMap) group(n int, shardOf func(i int) int) []shardGroup {
	buf := make([]int, 2*n+len(s.addrs))
	idx, owner, cursor := buf[:n:n], buf[n:2*n], buf[2*n:]
	for i := range owner {
		owner[i] = shardOf(i)
		if owner[i] >= 0 {
			cursor[owner[i]]++
		}
	}
	used, start := 0, 0
	for k, c := range cursor {
		if c > 0 {
			used++
		}
		cursor[k] = start
		start += c
	}
	for i, k := range owner {
		if k >= 0 {
			idx[cursor[k]] = i
			cursor[k]++
		}
	}
	// cursor[k] now marks the end of shard k's window.
	groups := make([]shardGroup, 0, used)
	start = 0
	for k, end := range cursor {
		if end > start {
			groups = append(groups, shardGroup{addr: s.addrs[k], idx: idx[start:end:end]})
		}
		start = end
	}
	return groups
}
