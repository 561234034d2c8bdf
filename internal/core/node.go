package core

import (
	"sync"
	"sync/atomic"

	"pacon/internal/memcache"
	"pacon/internal/mq"
	"pacon/internal/namespace"
	"pacon/internal/obs"
)

// node is one application node of a region (paper Fig 5, §III.D.1): its
// cache server, its commit queue, the table of what it has acked that the
// DFS does not have yet, and — the committer NewRegion starts on it — its
// commit process. Clients bound to the node take references in the table;
// the commit process gives them back (as does SimulateNodeFailure, for the
// ops that die with the node); everyone else only asks.
type node struct {
	name, addr string // addr is the cache server's, on the region's network
	cache      *memcache.Server
	queue      *mq.Queue[Op]
	tel        *obs.Node // nil: observability disabled
	inflight   inflight
}

// inflight holds, per path, the ops between their client's store and their
// terminal — queued, in a wave or parked alike. Scoped barriers, threshold
// crossings, the auditor, the staleness watermarks and the at-risk gauge
// all read it; a record lives exactly as long as its references.
type inflight struct {
	mu    sync.Mutex
	paths map[string]pending
	// spills counts the records holding a spill. A landing create reads it
	// before it asks for one: with no fsync outstanding, the common case,
	// an op locks the table twice, at its take and at its release.
	spills atomic.Int32
}

type pending struct {
	refs  int
	walls []int64  // when each op entered; empty with observability off
	spill *spilled // nil but between an fsync and the end of its incarnation
}

// spilled is a small file's bytes as an fsync found them (§III.D.2), and
// the seq of the entry it copied them from: the incarnation they belong to.
type spilled struct {
	seq  uint64
	data []byte
}

// take counts one more op on p, from before its store is visible: whoever
// finds the stored entry finds the op pending too. The reference then
// travels with the op the client queues. wall is 0 with observability off.
func (t *inflight) take(p string, wall int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paths == nil {
		t.paths = make(map[string]pending)
	}
	rec := t.paths[p]
	rec.refs++
	if wall != 0 {
		rec.walls = append(rec.walls, wall)
	}
	t.paths[p] = rec
}

// release gives back the reference taken at wall. seq is the op's, and ends
// a spill made of an entry no newer than the op: the op carried those bytes
// to the DFS, or is the end of their incarnation. 0 ends none (no op was
// queued, or its effect rides a coalesced survivor). The last reference
// takes the record, spill and all; what was never taken is not given back.
func (t *inflight) release(p string, wall int64, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.paths[p]
	if !ok {
		return
	}
	rec.refs--
	if rec.spill != nil && (rec.refs == 0 || seq >= rec.spill.seq) {
		rec.spill = nil
		t.spills.Add(-1)
	}
	if rec.refs == 0 {
		delete(t.paths, p)
		return
	}
	for i, w := range rec.walls {
		if w == wall {
			rec.walls[i] = rec.walls[len(rec.walls)-1]
			rec.walls = rec.walls[:len(rec.walls)-1]
			break
		}
	}
	t.paths[p] = rec
}

// has reports whether an op on p itself is pending.
func (t *inflight) has(p string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.paths[p].refs > 0
}

// hasUnder reports whether any pending path lies in scope's subtree.
func (t *inflight) hasUnder(scope string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.paths {
		if namespace.IsUnder(p, scope) {
			return true
		}
	}
	return false
}

// oldest returns the earliest wall an op pending on p — on any path when p
// is "" — entered at, or 0 for none.
func (t *inflight) oldest(p string) (min int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fold := func(rec pending) {
		for _, w := range rec.walls {
			if min == 0 || w < min {
				min = w
			}
		}
	}
	if p != "" {
		fold(t.paths[p])
		return min
	}
	for _, rec := range t.paths {
		fold(rec)
	}
	return min
}

// atRisk counts the node's pending ops — acked, or about to be, and short
// of a terminal: what the DFS would never see if the node died now.
func (t *inflight) atRisk() (n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.paths {
		n += rec.refs
	}
	return n
}

// putSpill keeps an fsync's copy of the entry of that seq with p's record,
// in place of an older one. false: nothing is pending on p here.
func (t *inflight) putSpill(p string, seq uint64, data []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.paths[p]
	if ok {
		if rec.spill == nil {
			t.spills.Add(1)
		}
		rec.spill = &spilled{seq: seq, data: append([]byte(nil), data...)}
		t.paths[p] = rec
	}
	return ok
}

// takeSpill hands p's spilled bytes to the create that has just landed.
func (t *inflight) takeSpill(p string) []byte {
	if t.spills.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.paths[p]
	if rec.spill == nil {
		return nil
	}
	data := rec.spill.data
	rec.spill = nil
	t.spills.Add(-1)
	t.paths[p] = rec
	return data
}
