package core

import "time"

// This file is the consistency-lag half of the observability seam. The
// nodes' in-flight tables (node.go) hold the wall-clock time every op that
// has not reached a terminal entered at; the oldest of them bounds how far
// the DFS backup copy trails the primary cache copy — the paper's
// inconsistency window, made measurable. Parked and retrying ops keep
// their place, unlike in a queue-head gauge, which forgets an op at
// dequeue. Wall clock only: with Deps.Obs unset no wall is recorded and
// every age below reads 0.

// age is how long ago wall was, in ns; 0 for no wall.
func age(wall int64) int64 {
	if wall == 0 {
		return 0
	}
	return time.Now().UnixNano() - wall
}

// oldest is the earliest wall time an op pending on p ("": on any path)
// entered any node's pipeline at.
func (r *Region) oldest(p string) int64 {
	var min int64
	for _, n := range r.nodes {
		if w := n.inflight.oldest(p); w != 0 && (min == 0 || w < min) {
			min = w
		}
	}
	return min
}

// MaxStaleness is the region-wide consistency-lag watermark: the age of
// the oldest unacknowledged operation across every node's pipeline —
// an upper bound on how far any DFS backup copy currently trails its
// primary cache copy. 0 means fully converged (or observability off).
func (r *Region) MaxStaleness() int64 { return age(r.oldest("")) }

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
	for _, n := range r.nodes {
		if op, ok := n.queue.Oldest(); ok && op.EnqWall != 0 && (oldest == 0 || op.EnqWall < oldest) {
			oldest = op.EnqWall
		}
	}
	return age(oldest)
}

// PathPending reports whether any op for exactly path p is still in
// some node's commit pipeline. The tables count references regardless of
// observability, so the auditor can tell stale-pending from divergent, and
// a threshold crossing wait for the path, on a region with Deps.Obs unset.
func (r *Region) PathPending(p string) bool {
	return r.perNode(func(n *node) int { return n.inflight.refsOn(p) }) > 0
}

// OldestPendingAge returns the age (ns) of the oldest in-flight op for
// exactly path p across all nodes, or 0 when none is tracked (path not
// pending, or observability disabled).
func (r *Region) OldestPendingAge(p string) int64 { return age(r.oldest(p)) }

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
// for them is a real consistency violation, not in-flight lag. Each is
// decoded under its cache server's shard lock, so what is sampled is what
// the entry held. limit <= 0 means everything.
func (r *Region) SampleCommitted(limit int) []CacheEntry {
	var out []CacheEntry
	for _, n := range r.nodes {
		n.cache.Scan(func(key string, raw []byte) bool {
			if v, err := decodeCacheVal(raw); err == nil && !v.dirty && !v.removed {
				out = append(out, v.entry(key))
			}
			return limit <= 0 || len(out) < limit
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
