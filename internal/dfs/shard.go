package dfs

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pacon/internal/namespace"
)

// ShardMap partitions the namespace across a set of MDS shards by
// directory subtree, with parent affinity: a dirent and its parent
// resolve to the same shard unless a subtree has been explicitly
// delegated elsewhere. The map distinguishes three zones:
//
//   - Structural paths — the spread roots (workspace-style directories
//     registered at deployment time, plus "/" always) and their
//     ancestors. These directories are mirrored on every shard, so any
//     shard can check parent writability locally and any mirror answers
//     a read. Mutating a structural path fans out to all shards.
//
//   - Hash zone — each immediate child subtree of a spread root is an
//     implicit delegation point: the whole subtree hashes as one unit
//     (FNV-32a of the child prefix, mod shard count). Everything deeper
//     inherits that shard — the MIDAS-style parent affinity that keeps a
//     hot directory's traversal on one server — while sibling subtrees
//     under the spread root still spread across the pool.
//
//   - Explicit delegations — an operator (or test) may pin a subtree to
//     a chosen shard; the longest delegated prefix wins over the hash.
//
// Every cluster routes by one of these, a single MDS included: a
// one-shard map has one answer for every path, gives it without looking
// at the path (route), and records no delegations, so nothing on it is
// ever mirrored, fanned out or voted on — the client code that handles
// several targets simply never sees more than one.
//
// The shard addresses are immutable after construction; delegations may
// be added concurrently with routing.
type ShardMap struct {
	addrs  []string
	spread []string // mirrored structural roots, each cleaned; "/" implied

	ndeleg atomic.Int32
	mu     sync.RWMutex
	deleg  map[string]int
}

// NewShardMap builds a shard map over the given shard service addresses.
// spreadRoots lists the directories whose children should spread across
// the pool (the root "/" always behaves as one).
func NewShardMap(addrs []string, spreadRoots []string) *ShardMap {
	s := &ShardMap{
		addrs: append([]string(nil), addrs...),
		deleg: make(map[string]int),
	}
	for _, r := range spreadRoots {
		r = namespace.Clean(r)
		if r != "/" {
			s.spread = append(s.spread, r)
		}
	}
	return s
}

// Addrs returns the shard service addresses in shard order.
func (s *ShardMap) Addrs() []string { return s.addrs }

// N returns the shard count.
func (s *ShardMap) N() int { return len(s.addrs) }

// Structural reports whether p is mirrored on every shard: a spread
// root, an ancestor of one, or the root itself.
func (s *ShardMap) Structural(p string) bool {
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
	base := 0 // length of "/"-rooted structural ancestor, 0 means root
	for _, r := range s.spread {
		if len(r) > base && (r == p || namespace.IsUnder(p, r)) {
			base = len(r)
		}
	}
	// The hash unit ends at the first '/' after the structural ancestor.
	for i := base + 1; i < len(p); i++ {
		if p[i] == '/' {
			return i
		}
	}
	return len(p)
}

// Owner returns the shard index owning p. Structural paths report
// shard 0 (their canonical mirror); use Structural to detect them.
func (s *ShardMap) Owner(p string) int { return max(s.route(p), 0) }

// route returns the shard a single-path operation on p goes to, or -1
// when p is mirrored on every shard (a mutation then goes to all of
// them, a read to any one). With one shard there is nothing to decide.
func (s *ShardMap) route(p string) int {
	if len(s.addrs) == 1 {
		return 0
	}
	if s.Structural(p) {
		return -1
	}
	if s.ndeleg.Load() > 0 {
		s.mu.RLock()
		best, bestLen := -1, -1
		for root, shard := range s.deleg {
			if (root == p || namespace.IsUnder(p, root)) && len(root) > bestLen {
				best, bestLen = shard, len(root)
			}
		}
		s.mu.RUnlock()
		if best >= 0 {
			return best
		}
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

// AddrOf returns the shard address for index i.
func (s *ShardMap) AddrOf(i int) string { return s.addrs[i] }

// shardGroup is one shard's share of a batch: the positions, ascending,
// of the paths that go to the shard at addr.
type shardGroup struct {
	addr string
	idx  []int
}

// group buckets the positions 0 … n-1 of a batch by shard: one group per
// shard touched, in the order the batch first touches them. shardOf
// names position i's shard, or a negative number to leave i out. Every
// idx is a window of one backing array and no map is built — shard
// indices are small integers, which is dht.GroupByOwner's lesson applied
// to the other multi-server client. Results land by position, so the
// order means nothing to a caller; it is the order the fan-out spawns
// its goroutines in, and an unpaced commit process's batch sizes move
// with that order until ROADMAP item 2's scheduler makes them a function
// of virtual time (DESIGN.md §8).
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
	slices.SortFunc(groups, func(a, b shardGroup) int { return a.idx[0] - b.idx[0] })
	return groups
}

// Delegate pins the subtree rooted at p to the given shard, overriding
// the hash. Structural paths cannot be delegated (they are mirrored
// everywhere by definition). On a one-shard map there is nothing to
// override and nothing is recorded.
func (s *ShardMap) Delegate(p string, shard int) error {
	p = namespace.Clean(p)
	if shard < 0 || shard >= len(s.addrs) {
		return fmt.Errorf("dfs: delegate %s: shard %d out of range [0,%d)", p, shard, len(s.addrs))
	}
	if s.Structural(p) {
		return fmt.Errorf("dfs: delegate %s: structural paths are mirrored, not delegated", p)
	}
	if len(s.addrs) == 1 {
		return nil
	}
	s.mu.Lock()
	if _, ok := s.deleg[p]; !ok {
		s.ndeleg.Add(1)
	}
	s.deleg[p] = shard
	s.mu.Unlock()
	return nil
}

// DelegationShardsUnder returns the distinct shards holding explicit
// delegations strictly under dir (excluding dir itself). A directory
// operation (readdir, rmdir, rmtree) must include these shards in its
// fan-out, since delegated children live outside dir's owner shard.
func (s *ShardMap) DelegationShardsUnder(dir string) []int {
	if s.ndeleg.Load() == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int
	for root, shard := range s.deleg {
		if !namespace.IsUnder(root, dir) {
			continue
		}
		dup := false
		for _, sh := range out {
			if sh == shard {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, shard)
		}
	}
	return out
}

// CrossesDelegation reports whether any explicit delegation boundary
// lies strictly inside the subtree rooted at p — renaming such a
// subtree would silently re-home the delegated part, so it is refused.
func (s *ShardMap) CrossesDelegation(p string) bool {
	if s.ndeleg.Load() == 0 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for root := range s.deleg {
		if namespace.IsUnder(root, p) && root != p {
			return true
		}
	}
	return false
}
