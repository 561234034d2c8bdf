// Package dht implements the consistent-hash ring Pacon uses to
// distribute full-path metadata keys across the distributed cache nodes
// of a consistent region (paper §III.A: "uses full path as the key to
// store the metadata, and distributes them in the distributed cache by
// DHT"). Virtual nodes smooth the key distribution so a 16-node region
// stays balanced even for adversarial path sets.
package dht

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-member vnode count; 128 keeps the
// max/min key imbalance under ~15% for realistic member counts.
const DefaultVirtualNodes = 128

// Ring is a consistent-hash ring mapping keys to member addresses.
// It is safe for concurrent lookup; membership changes take the write
// lock.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members []string // sorted
	points  []point  // sorted by (hash, member)
}

// point is one vnode: its ring position and the index of its member in
// Ring.members. Owners are kept as indices so a lookup is a binary
// search plus a slice index, and grouping can bucket keys by member
// without a map.
type point struct {
	hash   uint64
	member int32
}

// New creates a ring with the given virtual-node count per member
// (DefaultVirtualNodes if vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes}
}

// NewWithMembers builds a ring pre-populated with members.
func NewWithMembers(vnodes int, members ...string) *Ring {
	r := New(vnodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// FNV-1a 64, inlined: hash/fnv hides its state behind an interface,
// which heap-allocates per call — and hashKey runs once per key on every
// Lookup/GroupByOwner, i.e. at least once per cache RPC.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashKey(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer; FNV alone clusters badly on short
// vnode labels, which skews ring ownership.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// memberIndex returns member's position in the sorted member slice, or
// where it would be inserted.
func (r *Ring) memberIndex(member string) (int, bool) {
	i := sort.SearchStrings(r.members, member)
	return i, i < len(r.members) && r.members[i] == member
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, found := r.memberIndex(member)
	if found {
		return
	}
	r.members = append(r.members, "")
	copy(r.members[at+1:], r.members[at:])
	r.members[at] = member
	for i := range r.points {
		if r.points[i].member >= int32(at) {
			r.points[i].member++
		}
	}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hashKey(fmt.Sprintf("%s#%d", member, i)), member: int32(at)})
	}
	// In the astronomically unlikely event of a vnode collision both
	// points stay and the first member in sorted order owns the slot;
	// correctness (some member owns every key) is unaffected.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		return a.hash < b.hash || a.hash == b.hash && a.member < b.member
	})
}

// ownerIndex returns the index in r.members of key's owner; the ring
// must be non-empty and the caller holds the lock.
func (r *Ring) ownerIndex(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return int(r.points[i].member)
}

// Lookup returns the member owning key. It returns "" when the ring is
// empty.
func (r *Ring) Lookup(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.ownerIndex(key)]
}

// Members returns the current member set in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.members...)
}

// OwnerGroup is one member's share of a GroupByOwner call.
type OwnerGroup struct {
	Owner string
	// Idx holds the positions in the caller's key slice of the keys
	// Owner is responsible for, ascending — so a key that occurs twice
	// appears twice, and a reply that lists results in Idx order fills
	// the caller's result slice directly.
	Idx []int
}

// GroupByOwner partitions keys by their owning member: one group per
// member that owns at least one key, in Members order. Multi-key cache
// calls use it to turn N per-key round trips into one RPC per owner. It
// is GroupInto with fresh storage: two allocations whatever the key count.
func (r *Ring) GroupByOwner(keys []string) []OwnerGroup {
	var g Grouping
	return r.GroupInto(&g, len(keys), func(i int) string { return keys[i] })
}

// Grouping is the storage GroupInto groups into, reusable from one call
// to the next: a caller that keeps one groups without allocating once it
// has seen its largest batch. The groups a call returns live until the
// next call on the same Grouping.
type Grouping struct {
	buf    []int
	groups []OwnerGroup
}

// GroupInto partitions the n keys key(0) … key(n-1) as GroupByOwner does,
// into g. Keys share one read lock and one hash-per-key, every group's Idx
// is a window of one backing array, and no map is built; an empty ring
// maps every key to the "" owner.
func (r *Ring) GroupInto(g *Grouping, n int, key func(i int) string) []OwnerGroup {
	if n == 0 {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	nm := len(r.members)
	if nm == 0 {
		idx := g.ints(n)
		for i := range idx {
			idx[i] = i
		}
		return append(g.groupsFor(1), OwnerGroup{Idx: idx})
	}
	// One array, three windows: the grouped positions (what the result
	// keeps), each key's owner, and a per-member cursor that first
	// counts the member's keys and then walks its window.
	buf := g.ints(2*n + nm)
	idx, owner, cursor := buf[:n:n], buf[n:2*n], buf[2*n:]
	clear(cursor)
	for i := 0; i < n; i++ {
		m := r.ownerIndex(key(i))
		owner[i] = m
		cursor[m]++
	}
	used, start := 0, 0
	for m, c := range cursor {
		if c > 0 {
			used++
		}
		cursor[m] = start
		start += c
	}
	groups := g.groupsFor(used)
	for i, m := range owner {
		idx[cursor[m]] = i
		cursor[m]++
	}
	// cursor[m] now marks the end of member m's window.
	start = 0
	for m, end := range cursor {
		if end > start {
			groups = append(groups, OwnerGroup{Owner: r.members[m], Idx: idx[start:end:end]})
		}
		start = end
	}
	return groups
}

// ints returns g's index array at length n, grown if it is shorter.
func (g *Grouping) ints(n int) []int {
	if cap(g.buf) < n {
		g.buf = make([]int, n)
	}
	return g.buf[:n]
}

// groupsFor returns g's group slice emptied, with room for n groups.
func (g *Grouping) groupsFor(n int) []OwnerGroup {
	if cap(g.groups) < n {
		g.groups = make([]OwnerGroup, 0, n)
	}
	return g.groups[:0]
}
