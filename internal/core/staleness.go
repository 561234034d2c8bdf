package core

import (
	"sync"
	"time"
)

// This file is the consistency-lag half of the observability seam: it
// tracks, per node, the wall-clock enqueue times of every operation that
// entered the commit pipeline and has not yet reached a terminal state
// (committed, discarded, dropped, or absorbed by the coalescer). The
// oldest resident timestamp bounds how far the DFS backup copy trails
// the primary cache copy — the paper's inconsistency window, made
// measurable. Everything here is wall clock only and nil-safe: with
// Deps.Obs unset no op carries an EnqWall, every hook is one branch,
// and the trackers stay empty.

// lagTracker holds the in-flight enqueue timestamps of one node's
// pipeline, keyed by path. Parked and retrying ops keep their entry —
// they have not reached a terminal — so the max-staleness watermark
// covers them, unlike a queue-head gauge which forgets an op at dequeue.
type lagTracker struct {
	mu    sync.Mutex
	walls map[string][]int64
}

func (t *lagTracker) add(p string, wall int64) {
	t.mu.Lock()
	if t.walls == nil {
		t.walls = make(map[string][]int64)
	}
	t.walls[p] = append(t.walls[p], wall)
	t.mu.Unlock()
}

// remove drops one instance of wall for p; tolerant of a missing entry
// (an op enqueued before observability was attached terminates without
// a record).
func (t *lagTracker) remove(p string, wall int64) {
	t.mu.Lock()
	ws := t.walls[p]
	for i, w := range ws {
		if w == wall {
			ws[i] = ws[len(ws)-1]
			ws = ws[:len(ws)-1]
			break
		}
	}
	if len(ws) == 0 {
		delete(t.walls, p)
	} else {
		t.walls[p] = ws
	}
	t.mu.Unlock()
}

// oldest returns the minimum resident timestamp, or 0 when nothing is
// in flight.
func (t *lagTracker) oldest() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min int64
	for _, ws := range t.walls {
		for _, w := range ws {
			if min == 0 || w < min {
				min = w
			}
		}
	}
	return min
}

// oldestFor returns the minimum resident timestamp for exactly path p,
// or 0 when p has nothing in flight.
func (t *lagTracker) oldestFor(p string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min int64
	for _, w := range t.walls[p] {
		if min == 0 || w < min {
			min = w
		}
	}
	return min
}

// OldestUnacked returns the age (ns of wall time) of the oldest
// operation in node's commit pipeline that has not reached the DFS —
// queued, in-flight, parked or retrying alike. 0 means the pipeline is
// empty or observability is disabled.
func (r *Region) OldestUnacked(node string) int64 {
	t := r.lags[node]
	if t == nil {
		return 0
	}
	w := t.oldest()
	if w == 0 {
		return 0
	}
	return time.Now().UnixNano() - w
}

// MaxStaleness is the region-wide consistency-lag watermark: the age of
// the oldest unacknowledged operation across every node's pipeline —
// an upper bound on how far any DFS backup copy currently trails its
// primary cache copy. 0 means fully converged (or observability off).
func (r *Region) MaxStaleness() int64 {
	var oldest int64
	for _, t := range r.lags {
		if w := t.oldest(); w != 0 && (oldest == 0 || w < oldest) {
			oldest = w
		}
	}
	if oldest == 0 {
		return 0
	}
	return time.Now().UnixNano() - oldest
}

// MaxCommitLag returns the largest single enqueue→durable latency
// observed so far (ns): the peak width of the inconsistency window for
// any op that did reach the DFS.
func (r *Region) MaxCommitLag() int64 { return r.maxLagNS.Load() }

// noteCommitLag folds one committed op's lag into the peak watermark.
func (r *Region) noteCommitLag(lag int64) {
	for {
		cur := r.maxLagNS.Load()
		if lag <= cur || r.maxLagNS.CompareAndSwap(cur, lag) {
			return
		}
	}
}

// QueueHeadAge returns the age (ns) of the oldest still-queued message
// across the region's commit queues — residency of the message each
// commit process will dequeue next. Narrower than MaxStaleness (an op
// leaves the queue long before it is durable); useful for telling
// "queue is backed up" from "commits are failing". 0 when queues are
// empty or observability is off (no op carries an EnqWall).
func (r *Region) QueueHeadAge() int64 {
	var oldest int64
	for _, q := range r.queues {
		if op, ok := q.Oldest(); ok && op.EnqWall != 0 && (oldest == 0 || op.EnqWall < oldest) {
			oldest = op.EnqWall
		}
	}
	if oldest == 0 {
		return 0
	}
	return time.Now().UnixNano() - oldest
}

// PathPending reports whether any op for exactly path p is still in
// some node's commit pipeline. Unlike the lag trackers this is fed by
// the path trackers, which run regardless of observability — the
// auditor uses it to tell stale-pending from divergent even on a region
// with Deps.Obs unset.
func (r *Region) PathPending(p string) bool {
	for _, t := range r.trackers {
		t.mu.Lock()
		n := t.paths[p]
		t.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// OldestPendingAge returns the age (ns) of the oldest in-flight op for
// exactly path p across all nodes, or 0 when none is tracked (path not
// pending, or observability disabled).
func (r *Region) OldestPendingAge(p string) int64 {
	var oldest int64
	for _, t := range r.lags {
		if w := t.oldestFor(p); w != 0 && (oldest == 0 || w < oldest) {
			oldest = w
		}
	}
	if oldest == 0 {
		return 0
	}
	return time.Now().UnixNano() - oldest
}

// Drop reasons label the ops_dropped_* counters and StageDrop trace
// notes: without them, an op that never reached the DFS silently
// narrows the commit_lag histogram (dropped ops record no lag) and the
// operator cannot tell budget exhaustion from a poisoned op.
const (
	dropReasonRetryBudget  = "retry_budget"  // CommitRetryLimit exhausted
	dropReasonKindConflict = "kind_conflict" // file/dir kind mismatch: creation can never apply
	dropReasonBackendError = "backend_error" // non-retryable DFS error
)

// DroppedByReason breaks the dropped-op total down by terminal reason.
func (r *Region) DroppedByReason() map[string]int64 {
	return map[string]int64{
		dropReasonRetryBudget:  r.droppedRetry.Load(),
		dropReasonKindConflict: r.droppedConflict.Load(),
		dropReasonBackendError: r.droppedBackend.Load(),
	}
}

// SampleCommitted returns up to limit committed (clean, non-removed)
// cache entries across the region's servers, decoded. This is the
// divergence auditor's sampling source: clean entries are exactly the
// ones the region claims are durable on the DFS, so any mismatch found
// for them is a real consistency violation, not in-flight lag.
// Server-side header iteration picks the keys; the values are then
// fetched via ForEach-style snapshots. limit <= 0 means everything.
func (r *Region) SampleCommitted(limit int) []CacheEntry {
	var out []CacheEntry
	for _, s := range r.servers {
		want := -1
		if limit > 0 {
			want = limit - len(out)
			if want <= 0 {
				return out
			}
		}
		for _, kv := range s.CommittedItems(want) {
			v, err := decodeCacheVal(kv.Value)
			if err != nil || v.dirty || v.removed {
				continue // raced a mutation between header scan and decode
			}
			out = append(out, v.entry(kv.Key))
		}
	}
	return out
}
