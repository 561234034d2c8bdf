package obs

import (
	"math"
	"sort"
	"strings"
	"sync"

	"pacon/internal/namespace"
)

// Hotspot telemetry: the observation half of the elastic-region control
// loop. Every client op records the paths it names (Node.OpBegin) into a
// per-node bounded heavy-hitter sketch plus a subtree rollup, so the
// merged view can answer "which paths are hot", "which subtree would a
// split relieve", and "how skewed is the load" without unbounded
// memory. All state is O(capacity) per node regardless of key-space
// size; the record path is mutex + map probe + an O(log capacity) heap
// fix-up, and allocates only while a sketch is below capacity
// (evictions reuse the displaced entry).

// Default sketch capacities. Space-saving guarantees any key whose true
// count exceeds total/capacity is resident, so 256 path slots resolve
// the top tail of a working set thousands of keys wide, and subtrees
// (one key per directory, not per file) need fewer still.
const (
	DefaultHotPathCap    = 256
	DefaultHotSubtreeCap = 128
)

// SpaceSaving is a bounded top-K counter sketch (Metwally et al.'s
// space-saving algorithm). At most capacity keys are resident; when a
// new key arrives at capacity the minimum-count entry is evicted and
// the newcomer inherits its count as an overestimate, recorded per
// entry as ErrBound. Counts are therefore upper bounds with
// count-ErrBound the guaranteed lower bound, and any key with true
// frequency above Total/capacity is guaranteed resident.
type SpaceSaving struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*ssEntry
	heap      []*ssEntry // min-heap on (count, key); heap[0] is next victim
	total     int64
	evictions int64
}

type ssEntry struct {
	key      string
	count    int64
	errBound int64
	idx      int // position in the eviction heap
}

// NewSpaceSaving returns a sketch holding at most capacity keys.
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving{
		capacity: capacity,
		entries:  make(map[string]*ssEntry, capacity),
		heap:     make([]*ssEntry, 0, capacity),
	}
}

// Inc adds n to key's counter, evicting the minimum entry if the sketch
// is full. The eviction path reuses the displaced entry and the victim
// is the heap root, so a sketch at capacity records in O(log capacity)
// without allocating — worst-case unique-key churn (every op evicts)
// stays cheap enough for the client hot path.
func (s *SpaceSaving) Inc(key string, n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.total += n
	if e, ok := s.entries[key]; ok {
		e.count += n
		s.siftDown(e.idx) // count only grew: it can only move away from the root
		s.mu.Unlock()
		return
	}
	if len(s.entries) < s.capacity {
		e := &ssEntry{key: key, count: n, idx: len(s.heap)}
		s.entries[key] = e
		s.heap = append(s.heap, e)
		s.siftUp(e.idx)
		s.mu.Unlock()
		return
	}
	// Full: displace the minimum-count entry (ties broken on key so
	// eviction order is deterministic) and reuse its struct in place.
	min := s.heap[0]
	delete(s.entries, min.key)
	min.errBound = min.count
	min.count += n
	min.key = key
	s.entries[key] = min
	s.siftDown(0)
	s.evictions++
	s.mu.Unlock()
}

// ssLess orders the eviction heap: lowest count first, key as the
// deterministic tie-break.
func ssLess(a, b *ssEntry) bool {
	return a.count < b.count || (a.count == b.count && a.key < b.key)
}

func (s *SpaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx, s.heap[j].idx = i, j
}

func (s *SpaceSaving) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ssLess(s.heap[i], s.heap[p]) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *SpaceSaving) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && ssLess(s.heap[l], s.heap[least]) {
			least = l
		}
		if r < n && ssLess(s.heap[r], s.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.swap(i, least)
		i = least
	}
}

// Len returns the number of resident keys.
func (s *SpaceSaving) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Total returns the sum of all increments ever recorded (not just those
// still resident).
func (s *SpaceSaving) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Evictions returns how many entries were displaced at capacity.
func (s *SpaceSaving) Evictions() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// HotKey is one resident sketch entry. Count is an upper bound on the
// key's true frequency and Count-ErrBound a lower bound; Share is
// Count over the sketch's op total.
type HotKey struct {
	Path     string  `json:"path"`
	Count    int64   `json:"count"`
	ErrBound int64   `json:"err_bound,omitempty"`
	Share    float64 `json:"share"`
}

// Top returns the k highest-count entries, count-descending with path
// as the tie-break, shares computed against the sketch's own total.
func (s *SpaceSaving) Top(k int) []HotKey {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]HotKey, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, HotKey{Path: e.key, Count: e.count, ErrBound: e.errBound})
	}
	total := s.total
	s.mu.Unlock()
	sortHotKeys(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	if total > 0 {
		for i := range out {
			out[i].Share = float64(out[i].Count) / float64(total)
		}
	}
	return out
}

func sortHotKeys(ks []HotKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Count != ks[j].Count {
			return ks[i].Count > ks[j].Count
		}
		return ks[i].Path < ks[j].Path
	})
}

// MergeSketches combines per-node sketches into one bounded sketch:
// counts and error bounds sum per key, then only the top-capacity keys
// are kept. The merged total is the sum of the inputs' totals, so
// shares remain shares of all recorded ops.
func MergeSketches(capacity int, sketches ...*SpaceSaving) *SpaceSaving {
	m := NewSpaceSaving(capacity)
	sum := make(map[string]*ssEntry)
	for _, s := range sketches {
		if s == nil {
			continue
		}
		s.mu.Lock()
		m.total += s.total
		m.evictions += s.evictions
		for k, e := range s.entries {
			if acc, ok := sum[k]; ok {
				acc.count += e.count
				acc.errBound += e.errBound
			} else {
				sum[k] = &ssEntry{key: k, count: e.count, errBound: e.errBound}
			}
		}
		s.mu.Unlock()
	}
	order := make([]*ssEntry, 0, len(sum))
	for _, e := range sum {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].count != order[j].count {
			return order[i].count > order[j].count
		}
		return order[i].key < order[j].key
	})
	if len(order) > m.capacity {
		order = order[:m.capacity]
	}
	for _, e := range order {
		// Insert through the heap so the merged sketch stays a live,
		// Inc-able sketch, not just a read-only table.
		e.idx = len(m.heap)
		m.entries[e.key] = e
		m.heap = append(m.heap, e)
		m.siftUp(e.idx)
	}
	return m
}

// sketches is one client node's hotspot state: a path sketch plus a
// subtree rollup fed by ancestor iteration.
type sketches struct {
	paths    *SpaceSaving
	subtrees *SpaceSaving
}

func newSketches() *sketches {
	return &sketches{
		paths:    NewSpaceSaving(DefaultHotPathCap),
		subtrees: NewSpaceSaving(DefaultHotSubtreeCap),
	}
}

// record attributes one op to each of paths: the path sketch counts the
// exact key and every proper ancestor except the root gets a subtree
// credit (splitting "/" is not actionable, so it is excluded). A run of
// consecutive paths under one parent — a batch call usually names
// siblings — credits the shared ancestors once, with the run's length.
// The ancestor closure does not escape, so a record on resident keys is
// alloc-free.
func (h *sketches) record(paths []string) {
	for i := 0; i < len(paths); {
		dir, n := parentOf(paths[i]), int64(0)
		for ; i < len(paths) && parentOf(paths[i]) == dir; i++ {
			h.paths.Inc(paths[i], 1)
			n++
		}
		namespace.VisitAncestors(paths[i-1], func(anc string) bool {
			if anc != "/" {
				h.subtrees.Inc(anc, n)
			}
			return true
		})
	}
}

// parentOf returns a cleaned path's parent directory, trailing slash
// included.
func parentOf(p string) string { return p[:strings.LastIndexByte(p, '/')+1] }

// hotRange visits, in node order, the sketches of every node a client
// records ops on.
func (o *Obs) hotRange(fn func(node string, h *sketches)) {
	for _, n := range o.nodeList() {
		if h := n.hot.Load(); h != nil {
			fn(n.name, h)
		}
	}
}

// TopPaths merges every node's path sketch and returns the k hottest
// paths cluster-wide. Nil-safe.
func (o *Obs) TopPaths(k int) []HotKey {
	if o == nil {
		return nil
	}
	var sks []*SpaceSaving
	o.hotRange(func(_ string, h *sketches) { sks = append(sks, h.paths) })
	return MergeSketches(DefaultHotPathCap, sks...).Top(k)
}

// HotSubtrees merges every node's subtree rollup and returns up to k
// subtrees whose share of all recorded ops is at least minShare —
// the split candidates for an elastic rebalancer. Shares here are
// computed against the op total (each op credits every ancestor), so a
// subtree containing all traffic has share 1.0. Nil-safe.
func (o *Obs) HotSubtrees(k int, minShare float64) []HotKey {
	if o == nil {
		return nil
	}
	var sks []*SpaceSaving
	var ops int64
	o.hotRange(func(_ string, h *sketches) {
		sks = append(sks, h.subtrees)
		ops += h.paths.Total()
	})
	out := MergeSketches(DefaultHotSubtreeCap, sks...).Top(0)
	for i := range out {
		if ops > 0 {
			out[i].Share = float64(out[i].Count) / float64(ops)
		}
	}
	filtered := out[:0]
	for _, hk := range out {
		if hk.Share >= minShare {
			filtered = append(filtered, hk)
		}
	}
	if k > 0 && len(filtered) > k {
		filtered = filtered[:k]
	}
	return filtered
}

// NodeLoad is one node's recorded-op total.
type NodeLoad struct {
	Node string `json:"node"`
	Ops  int64  `json:"ops"`
}

// HotNodeLoads returns per-node recorded-op totals, sorted by node.
// Nil-safe.
func (o *Obs) HotNodeLoads() []NodeLoad {
	if o == nil {
		return nil
	}
	var out []NodeLoad
	o.hotRange(func(node string, h *sketches) {
		out = append(out, NodeLoad{Node: node, Ops: h.paths.Total()})
	})
	return out
}

// hotPathsTracked / hotSubtreesTracked / hotEvictions / topPathSharePermille
// back the hot_* self-metrics registered in New.
func (o *Obs) hotPathsTracked() int64 {
	var n int64
	o.hotRange(func(_ string, h *sketches) { n += int64(h.paths.Len()) })
	return n
}

func (o *Obs) hotSubtreesTracked() int64 {
	var n int64
	o.hotRange(func(_ string, h *sketches) { n += int64(h.subtrees.Len()) })
	return n
}

func (o *Obs) hotEvictions() int64 {
	var n int64
	o.hotRange(func(_ string, h *sketches) { n += h.paths.Evictions() + h.subtrees.Evictions() })
	return n
}

func (o *Obs) topPathSharePermille() int64 {
	top := o.TopPaths(1)
	if len(top) == 0 {
		return 0
	}
	return int64(math.Round(1000 * top[0].Share))
}

// nodeOpSkew is the load-imbalance of recorded ops across nodes.
func (o *Obs) nodeOpSkew() SkewStats {
	loads := o.HotNodeLoads()
	ops := make([]int64, len(loads))
	for i, l := range loads {
		ops[i] = l.Ops
	}
	return Skew(ops)
}

// SkewStats summarizes load imbalance over a population of counters.
// Both gauges are dimensionless ratios encoded permille (×1000) so
// they export as integer Prometheus gauges: MaxMeanPermille is
// max(load)/mean(load) — 1000 means perfectly balanced, 3000 means the
// hottest member carries 3× its fair share — and CVPermille is the
// coefficient of variation (population stddev over mean).
type SkewStats struct {
	N               int   `json:"n"`
	Total           int64 `json:"total"`
	MaxMeanPermille int64 `json:"max_mean_permille"`
	CVPermille      int64 `json:"cv_permille"`
}

// Skew computes imbalance stats over loads. Empty or zero-total
// populations report zero (no signal, not "balanced").
func Skew(loads []int64) SkewStats {
	st := SkewStats{N: len(loads)}
	if len(loads) == 0 {
		return st
	}
	var max int64
	for _, l := range loads {
		st.Total += l
		if l > max {
			max = l
		}
	}
	if st.Total <= 0 {
		return st
	}
	mean := float64(st.Total) / float64(len(loads))
	st.MaxMeanPermille = int64(math.Round(1000 * float64(max) / mean))
	var ss float64
	for _, l := range loads {
		d := float64(l) - mean
		ss += d * d
	}
	st.CVPermille = int64(math.Round(1000 * math.Sqrt(ss/float64(len(loads))) / mean))
	return st
}

// HotReport is the operator-facing hotspot snapshot: served by the
// paconfs `hot` command and /debug/hot endpoint and embedded in flight
// dumps. All tables are deterministically ordered.
type HotReport struct {
	TotalOps    int64      `json:"total_ops"`
	TopPaths    []HotKey   `json:"top_paths,omitempty"`
	HotSubtrees []HotKey   `json:"hot_subtrees,omitempty"`
	NodeOps     []NodeLoad `json:"node_ops,omitempty"`
	NodeSkew    SkewStats  `json:"node_skew"`
}

// HotReport snapshots the merged hotspot state, or nil when no ops have
// been recorded (or o is nil).
func (o *Obs) HotReport(k int, minShare float64) *HotReport {
	if o == nil {
		return nil
	}
	r := &HotReport{
		TopPaths:    o.TopPaths(k),
		HotSubtrees: o.HotSubtrees(k, minShare),
		NodeOps:     o.HotNodeLoads(),
		NodeSkew:    o.nodeOpSkew(),
	}
	for _, l := range r.NodeOps {
		r.TotalOps += l.Ops
	}
	if r.TotalOps == 0 {
		return nil
	}
	return r
}
