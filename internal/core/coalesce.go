package core

// coalesceOps merges runs of same-path operations dequeued together.
// The batch comes from one node's queue within one barrier epoch, so
// every merge below is invisible to the rest of the region:
//
//   - No reader can observe the skipped intermediate DFS states. Reads
//     are served from the distributed cache (whose value already
//     reflects the *last* queued mutation — each push overwrote the
//     cache entry before enqueueing), and cache misses only load from
//     the DFS after the entry was evicted, which eviction refuses while
//     the entry is dirty.
//   - Per-path FIFO is preserved: a merged run collapses onto the
//     position of its first op, and later ops of the same path continue
//     to coalesce into (or queue behind) that position.
//   - Barrier epochs are respected by construction: mq.Queue.PopBatchInto
//     never returns ops straddling a barrier marker, so a dependent
//     operation (rmdir, rename) still observes every op that preceded
//     its barrier, in merged form.
//
// Merge rules (prev is the batch's latest op for the path, next the
// incoming one):
//
//	create/mkdir + setstat  -> create/mkdir carrying the newer stat
//	setstat      + setstat  -> the newer setstat (stats are absolute,
//	                           never deltas — WriteAt re-encodes the
//	                           full inline content every push)
//	setstat      + remove   -> the remove (the remove's marker already
//	                           superseded the setstat's seq in cache)
//	create/mkdir + remove   -> net-absence remove (annihilation), only
//	                           when the create is NOT create-after-rm:
//	                           an AfterRm create means an older
//	                           incarnation's remove is still queued —
//	                           possibly on another node — and stealing
//	                           its DFS delete would strand it retrying
//	                           against an absent path.
//
// A remove never merges as prev (remove+create is a fresh incarnation
// that must commit on its own), and nothing merges across a non-merge:
// the map tracks only the latest position per path.
//
// onMerge (nil ok) is called once per fold with the surviving merged op
// and the op absorbed into it — the commit loop's hook for closing the
// absorbed op's span and releasing its in-flight reference. The
// absorbed side is identified structurally (the merged op keeps prev's
// kind when a setstat folded into a create, and next's kind otherwise)
// so the hook fires even when tracing is off and every span is zero.
//
// The result is built in place (out reuses ops' backing array — the
// write index never passes the read index, and each range element is
// copied out before the slot can be overwritten), and scratch, when
// non-nil, is a caller-owned per-path index map reused across batches so
// a long-running commit loop allocates nothing per dequeue. Pass nil to
// allocate internally.
func coalesceOps(ops []Op, scratch map[string]int, onMerge func(survivor, absorbed Op)) ([]Op, int64) {
	if len(ops) < 2 {
		return ops, 0
	}
	last := scratch
	if last == nil {
		last = make(map[string]int, len(ops))
	} else {
		clear(last)
	}
	out := ops[:0]
	var merged int64
	for _, op := range ops {
		if i, ok := last[op.Path]; ok {
			if m, ok := mergeOps(out[i], op); ok {
				if onMerge != nil {
					if m.Kind == op.Kind {
						onMerge(m, out[i])
					} else {
						onMerge(m, op)
					}
				}
				out[i] = m
				merged++
				continue
			}
		}
		out = append(out, op)
		last[op.Path] = len(out) - 1
	}
	return out, merged
}

// mergeOps folds next into prev per the rules above; ok=false means the
// pair must both commit.
func mergeOps(prev, next Op) (Op, bool) {
	t := prev.Time
	if next.Time > t {
		t = next.Time
	}
	switch {
	case (prev.Kind == OpCreate || prev.Kind == OpMkdir) && next.Kind == OpSetStat:
		m := prev
		m.Stat = next.Stat
		m.Seq = next.Seq
		m.Time = t
		return m, true
	case prev.Kind == OpSetStat && next.Kind == OpSetStat:
		m := next
		m.Time = t
		return m, true
	case prev.Kind == OpSetStat && next.Kind == OpRemove:
		m := next
		m.Time = t
		return m, true
	case (prev.Kind == OpCreate || prev.Kind == OpMkdir) && next.Kind == OpRemove && !prev.AfterRm:
		// The net-absence remove continues the remove's span (the
		// create's span ends at the coalesce event).
		return Op{Kind: OpRemove, Path: next.Path, Seq: next.Seq, Node: next.Node, Time: t,
			NetAbsent: true, node: next.node, Span: next.Span, EnqWall: next.EnqWall, Sampled: next.Sampled}, true
	}
	return Op{}, false
}
