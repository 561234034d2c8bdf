package core

import (
	"errors"
	"fmt"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// pendingOp is a failed non-dependent commit awaiting resubmission
// (§III.E.1: "we only need to resubmit the operation until it succeeds").
type pendingOp struct {
	op       Op
	attempts int
}

// pendingSet keeps failed ops in arrival order plus a per-path count so
// later same-path ops can be held back. region (nil in white-box tests
// building a bare set) carries the parked-ops gauge.
type pendingSet struct {
	ops   []pendingOp
	paths map[string]int

	region *Region
}

// add parks an op. why labels the park terminal-stage event so traces
// distinguish an op held for per-path ordering from one that actually
// failed and awaits resubmission.
func (p *pendingSet) add(op Op, why string) {
	// Parked ops are always tail-kept by the sampler at their terminal;
	// the flag rides the stored copy through retries.
	op.Parked = true
	if p.paths == nil {
		p.paths = make(map[string]int)
	}
	p.ops = append(p.ops, pendingOp{op: op})
	p.paths[op.Path]++
	if p.region != nil {
		p.region.parked.Add(1)
	}
	op.trace(obs.StagePark, why)
}

// release drops one reference to a parked path, deleting the key when it
// reaches zero so the map does not grow with every path that ever parked
// over a long-running commit loop.
func (p *pendingSet) release(path string) {
	if n := p.paths[path] - 1; n > 0 {
		p.paths[path] = n
	} else {
		delete(p.paths, path)
	}
	if p.region != nil {
		p.region.parked.Add(-1)
	}
}

func (p *pendingSet) blocks(path string) bool { return p.paths[path] > 0 }

// commitLoop is one node's commit process: the subscriber of the node's
// commit queue. It applies operations to the DFS through the node's own
// backend client, participates in barrier epochs, and maintains the
// cache's dirty/removed bookkeeping.
//
// Operations are dequeued up to CommitBatchSize at a time (never across
// a barrier marker), same-path runs are coalesced (see coalesceOps), and
// independent-path ops ship to the DFS in one apply_batch round trip.
//
// Resubmission policy: a failed op parks in the pending set while
// *other-path* ops continue — that is what converges creations enqueued
// before their parents (cross-queue dependencies, or applications that
// disabled the parent check). Same-path ops never overtake a parked one:
// reordering a create → rm → create chain can commit the re-creation
// first and then let the retried remove delete the wrong incarnation.
// Per-queue per-path FIFO is exactly the order the paper's §III.E
// argument presumes.
func (r *Region) commitLoop(node string, backend Backend) {
	q := r.queues[node]
	cache := memcache.NewClient(rpc.NewCaller(r.deps.Bus, r.cfg.Model, node), r.ring)
	var now vclock.Time
	pending := pendingSet{region: r}
	coalesceScratch := make(map[string]int, r.cfg.CommitBatchSize)
	// batchBuf is the dequeue buffer, reused across PopBatchInto calls:
	// everything downstream (coalescing, wave construction, parking)
	// copies the Op values it keeps, so nothing references the buffer by
	// the time the loop re-enters.
	var batchBuf []Op

	// onMerge retires the absorbed op: the survivor carries the path to
	// its own terminal, and the absorbed span ends here with a coalesce
	// event naming the span its effect now rides.
	onMerge := func(survivor, absorbed Op) {
		note := ""
		if absorbed.tel != nil {
			note = fmt.Sprintf("into span %d", survivor.Span)
		}
		r.opTerminal(absorbed, obs.StageCoalesce, note)
	}

	for {
		ops, isBarrier, epoch, ok := q.PopBatchInto(batchBuf, r.cfg.CommitBatchSize)
		if ops != nil {
			batchBuf = ops
		}
		if !ok {
			// Queue closed: push out whatever can still commit.
			r.drainPending(&pending, &now, backend, cache)
			return
		}
		if isBarrier {
			// Everything before the marker must reach the DFS before we
			// report arrival (§III.E.2).
			r.drainPending(&pending, &now, backend, cache)
			r.barrier.Arrive(epoch, now)
			rel, err := r.barrier.AwaitRelease(epoch)
			if err != nil {
				return
			}
			now = vclock.Max(now, rel)
			continue
		}
		r.observeDequeue(ops)
		ops, merged := coalesceOps(ops, coalesceScratch, onMerge)
		r.coalesced.Add(merged)
		r.applyOps(ops, &now, backend, cache, &pending)
		// Opportunistic pass: earlier failures often just needed a
		// sibling queue to commit a parent. Uncounted — only forced
		// drains consume the resubmission budget.
		r.retryPendingOnce(&pending, &now, backend, cache, false)
	}
}

// applyOps applies a dequeued batch in waves: each wave holds at most
// one op per path (per-path FIFO — a same-path follower waits for the
// next wave, and parks if its predecessor parked), and a wave's
// independent-path ops ship in one apply_batch round trip.
func (r *Region) applyOps(ops []Op, now *vclock.Time, backend Backend, cache *memcache.Client, pending *pendingSet) {
	inWave := make(map[string]bool, len(ops))
	for len(ops) > 0 {
		var wave, rest []Op
		clear(inWave)
		for _, op := range ops {
			switch {
			case inWave[op.Path]:
				rest = append(rest, op)
			case pending.blocks(op.Path):
				// Preserve per-path order behind the parked op.
				pending.add(op, "behind parked same-path op")
			default:
				inWave[op.Path] = true
				wave = append(wave, op)
			}
		}
		r.applyWave(wave, now, backend, cache, pending)
		ops = rest
	}
}

// batchable reports whether op can ship inside an apply_batch RPC.
// Creations under an active rmdir need the discard rule, and inline
// setstats are data writes — both stay on the singleton path.
func (r *Region) batchable(op Op) bool {
	if r.isRemoving(op.Path) {
		return false
	}
	switch op.Kind {
	case OpCreate, OpMkdir, OpRemove:
		return true
	case OpSetStat:
		return len(op.Stat.Inline) == 0
	}
	return false
}

// applyWave applies one wave of unique-path ops. Two or more batchable
// ops go out as a single apply_batch; net-absence removes always take
// the batch path (even alone) so the DFS sees their IfExists marker.
func (r *Region) applyWave(wave []Op, now *vclock.Time, backend Backend, cache *memcache.Client, pending *pendingSet) {
	var batch, single []Op
	for _, op := range wave {
		if r.batchable(op) {
			batch = append(batch, op)
		} else {
			single = append(single, op)
		}
	}
	if len(batch) == 1 && !batch[0].NetAbsent {
		single = append(single, batch[0])
		batch = nil
	}
	if len(batch) > 0 {
		r.applyBatchRPC(batch, now, backend, cache, pending)
	}
	for _, op := range single {
		if r.applyOp(op, now, backend, cache) {
			pending.add(op, "resubmittable failure")
		}
	}
}

// applyBatchRPC ships a wave's batchable ops in one backend round trip
// and finishes each per its own result.
func (r *Region) applyBatchRPC(ops []Op, now *vclock.Time, backend Backend, cache *memcache.Client, pending *pendingSet) {
	// The first sampled op's span tags the whole batch round trip — a
	// batch is one wire-level apply, so its server events belong to one
	// representative span.
	for _, op := range ops {
		if op.Sampled {
			if untag := r.commitTrace(op, backend, cache); untag != nil {
				defer untag()
			}
			break
		}
	}
	t := *now
	bops := make([]fsapi.BatchOp, len(ops))
	inlines := make([][]byte, len(ops))
	for i, op := range ops {
		if op.Time > t {
			t = op.Time
		}
		bop := fsapi.BatchOp{Path: op.Path}
		switch op.Kind {
		case OpCreate, OpMkdir:
			bop.Kind = fsapi.BatchCreate
			if op.Kind == OpMkdir {
				bop.Kind = fsapi.BatchMkdir
			}
			// The DFS backup copy keeps small-file data on the data
			// path, not in MDS metadata (same as the singleton path).
			st := op.Stat
			inlines[i] = st.Inline
			st.Inline = nil
			bop.Stat = st
		case OpSetStat:
			bop.Kind = fsapi.BatchSetStat
			bop.Stat = op.Stat
		case OpRemove:
			bop.Kind = fsapi.BatchRemove
			bop.IfExists = op.NetAbsent
		}
		bops[i] = bop
	}
	r.batchRPCs.Add(1)
	r.batchedOps.Add(int64(len(ops)))
	r.backendRPCs.Add(1)
	errs, done, err := backend.ApplyBatch(t, bops)
	*now = done
	if err != nil {
		// Transport-level failure: disposition unknown, fall back to
		// singleton application which re-runs each op with full logic.
		r.batchFallbacks.Add(1)
		for _, op := range ops {
			if r.applyOp(op, now, backend, cache) {
				pending.add(op, "resubmittable failure")
			}
		}
		return
	}
	for i, op := range ops {
		var retry bool
		switch op.Kind {
		case OpCreate, OpMkdir:
			retry = r.finishCreate(op, inlines[i], errs[i], now, backend, cache)
		case OpSetStat:
			retry = r.finishSetStat(op, errs[i], now, cache)
		case OpRemove:
			retry = r.finishRemoveResult(op, errs[i], now, cache)
		}
		if retry {
			pending.add(op, "resubmittable failure")
		}
	}
}

// retryPendingOnce sweeps the pending set once in arrival order. A
// still-failing op keeps every later same-path op parked for the rest of
// the sweep. When counted is true, failures consume the budget.
func (r *Region) retryPendingOnce(pending *pendingSet, now *vclock.Time, backend Backend, cache *memcache.Client, counted bool) {
	if len(pending.ops) == 0 {
		return
	}
	var blocked map[string]bool
	kept := pending.ops[:0]
	for _, p := range pending.ops {
		if blocked[p.op.Path] {
			kept = append(kept, p)
			continue
		}
		r.retries.Add(1)
		p.op.trace(obs.StageRetry, "")
		if retry := r.applyOp(p.op, now, backend, cache); retry {
			if counted {
				p.attempts++
				if p.attempts >= r.cfg.CommitRetryLimit {
					r.dropOp(p.op, now, cache, dropReasonRetryBudget)
					pending.release(p.op.Path)
					continue
				}
			}
			if blocked == nil {
				blocked = make(map[string]bool)
			}
			blocked[p.op.Path] = true
			kept = append(kept, p)
		} else {
			p.op.trace(obs.StageUnpark, "")
			pending.release(p.op.Path)
		}
	}
	pending.ops = kept
}

// drainPending retries until every pending op commits or exhausts its
// resubmission budget. Called before barrier arrival and at shutdown.
// An op's dependency (e.g. its parent's create) may live in another
// node's queue, so no-progress passes yield real time to the sibling
// commit processes instead of spinning.
//
// The resubmission budget is only charged on passes where the REGION
// made no progress since the previous pass: a pending op is waiting on
// a dependency (typically its parent's create) that may sit deep in a
// sibling node's queue, and as long as any commit process is still
// landing operations, that dependency may yet arrive. Batched dequeue
// makes this essential — a fast node reaches the barrier with its whole
// dependency frontier parked (a hundred ops is normal when the workload
// was enqueued up front) and sweeps it continuously; charging those
// sweeps would burn an op's 64 attempts in the milliseconds a loaded
// sibling needs to crawl through its queue. Termination is preserved:
// queues are finite, so region-wide progress eventually stops, and from
// then on every stalled pass sleeps and charges every pending op until
// the limit drops it. The stalled-pass sleep also matters for more than
// pacing: it yields the CPU (and the MDS/cache locks) to the very
// sibling whose progress would unblock us.
func (r *Region) drainPending(pending *pendingSet, now *vclock.Time, backend Backend, cache *memcache.Client) {
	progress := func() int64 {
		return r.committed.Load() + r.discarded.Load() + r.dropped.Load()
	}
	last := int64(-1)
	for len(pending.ops) > 0 {
		snap := progress()
		r.retryPendingOnce(pending, now, backend, cache, snap == last)
		last = snap
		if progress() == snap {
			time.Sleep(time.Millisecond)
		}
	}
}

// applyOp applies one operation; it returns true if the op failed in a
// resubmittable way.
func (r *Region) applyOp(op Op, now *vclock.Time, backend Backend, cache *memcache.Client) bool {
	if untag := r.commitTrace(op, backend, cache); untag != nil {
		defer untag()
	}
	t := vclock.Max(*now, op.Time)
	switch op.Kind {
	case OpCreate, OpMkdir:
		// Discard rule: creations inside a directory being removed are
		// dropped, and their cache entries cleaned (§III.D.1) — but only
		// this op's incarnation (seq match, CAS-guarded): a newer
		// incarnation created after the rmdir window closed is live
		// primary-copy metadata and must survive.
		if r.isRemoving(op.Path) {
			r.opDiscarded(op)
			r.deleteIf(cache, &t, op.Path, memcache.CondSeq, op.Seq)
			*now = t
			return false
		}
		// The DFS backup copy keeps small-file data on the data path, not
		// in MDS metadata: strip the inline bytes and write them through
		// the normal file interface after the create lands.
		st := op.Stat
		inline := st.Inline
		st.Inline = nil
		r.backendRPCs.Add(1)
		done, err := backend.CreateWithStat(t, op.Path, st)
		*now = done
		return r.finishCreate(op, inline, err, now, backend, cache)

	case OpRemove:
		r.backendRPCs.Add(1)
		done, err := backend.Remove(t, op.Path)
		*now = done
		return r.finishRemoveResult(op, err, now, cache)

	case OpSetStat:
		var done vclock.Time
		var err error
		r.backendRPCs.Add(1)
		if len(op.Stat.Inline) > 0 {
			// Inline-data backup write: the file interface carries both
			// the bytes and the size update.
			done, err = backend.WriteAt(t, op.Path, 0, op.Stat.Inline)
		} else {
			done, err = backend.SetStat(t, op.Path, op.Stat)
		}
		*now = done
		return r.finishSetStat(op, err, now, cache)
	}
	return false
}

// finishCreate handles a create/mkdir's backend result (shared by the
// singleton and batched paths); it returns true if the op must be
// resubmitted.
func (r *Region) finishCreate(op Op, inline []byte, err error, now *vclock.Time, backend Backend, cache *memcache.Client) bool {
	switch {
	case err == nil:
		r.opCommitted(op)
		r.writebackInline(op.Path, inline, now, backend)
		r.writebackSpill(op.Path, now, backend)
		r.clearDirty(op, now, cache)
		return false
	case errors.Is(err, fsapi.ErrExist):
		// Three cases share this error. (1) The file was materialized
		// early by the large-file transition (§III.D.2) — that path
		// clears the dirty bit, so a clean live entry with our seq
		// means the DFS copy is ours: done. (2) The op is marked
		// create-after-rm: an earlier incarnation's remove is still
		// queued (possibly on another node) — our entry is still
		// dirty, the existing DFS file is doomed: resubmit until the
		// remove lands (independent commit reordering, §III.E.1).
		// (3) The op is NOT create-after-rm: no remove can be pending,
		// so the DFS object is this same path re-created after its
		// clean cache entry was evicted. Waiting would livelock until
		// the resubmission budget drops the op — adopt the object
		// instead, imposing the create's metadata on it.
		if v, ok := r.cacheLookup(op.Path, now, cache); ok && !v.removed {
			if v.seq != op.Seq || !v.dirty {
				r.opCommitted(op)
				r.writebackSpill(op.Path, now, backend)
				r.clearDirty(op, now, cache)
				return false
			}
			if !op.AfterRm {
				st := op.Stat
				st.Inline = nil
				r.backendRPCs.Add(1)
				est, done, serr := backendStatFresh(backend, *now, op.Path)
				*now = done
				if serr != nil {
					return true // vanished underneath us: retry the create
				}
				if est.IsDir() != st.IsDir() {
					// A different kind of object holds the name; the
					// creation can never apply.
					r.dropOp(op, now, cache, dropReasonKindConflict)
					return false
				}
				r.backendRPCs.Add(1)
				done, aerr := backend.SetStat(*now, op.Path, st)
				*now = done
				if aerr != nil {
					return true
				}
				r.opCommitted(op)
				r.writebackInline(op.Path, inline, now, backend)
				r.writebackSpill(op.Path, now, backend)
				r.clearDirty(op, now, cache)
				return false
			}
		}
		return true
	case errors.Is(err, fsapi.ErrNotExist):
		// Parent not committed yet (possibly queued on another node).
		return true
	case errors.Is(err, fsapi.ErrClosed), errors.Is(err, fsapi.ErrStale):
		// Closed: an MDS shard is down — it will come back (or the
		// router falls back); Stale: a cross-shard protocol holds an
		// intent over this subtree and will release it. Both transient.
		return true
	default:
		r.dropOp(op, now, cache, dropReasonBackendError)
		return false
	}
}

// finishRemoveResult handles a remove's backend result; it returns true
// if the op must be resubmitted.
func (r *Region) finishRemoveResult(op Op, err error, now *vclock.Time, cache *memcache.Client) bool {
	switch {
	case err == nil:
		r.opCommitted(op)
		r.finishRemove(op, now, cache)
		return false
	case errors.Is(err, fsapi.ErrNotExist):
		if op.NetAbsent {
			// Net-absence remove: the folded create never reached the
			// DFS, so an absent path IS the committed state.
			r.opCommitted(op)
			r.finishRemove(op, now, cache)
			return false
		}
		// The create this remove shadows may still be queued on
		// another node — resubmit; if it was discarded under an
		// rmdir, the retry limit cleans us up.
		if r.isRemoving(op.Path) {
			r.opDiscarded(op)
			r.finishRemove(op, now, cache)
			return false
		}
		return true
	case errors.Is(err, fsapi.ErrClosed), errors.Is(err, fsapi.ErrStale):
		return true // shard down / intent-blocked: transient
	default:
		r.dropOp(op, now, cache, dropReasonBackendError)
		return false
	}
}

// finishSetStat handles a setstat/inline-write backend result; it
// returns true if the op must be resubmitted.
func (r *Region) finishSetStat(op Op, err error, now *vclock.Time, cache *memcache.Client) bool {
	switch {
	case err == nil:
		r.opCommitted(op)
		r.clearDirty(op, now, cache)
		return false
	case errors.Is(err, fsapi.ErrNotExist):
		if r.isRemoving(op.Path) {
			r.opDiscarded(op)
			return false
		}
		return true // create still in flight
	case errors.Is(err, fsapi.ErrClosed), errors.Is(err, fsapi.ErrStale):
		return true // shard down / intent-blocked: transient
	default:
		r.dropOp(op, now, cache, dropReasonBackendError)
		return false
	}
}

// deleteIf deletes path's cache entry while cond holds for (seq, flags).
// It is one server-side conditional delete: the server evaluates the
// predicate under its shard lock, so an update racing the cleanup either
// lands first (and the predicate sees it) or lands after the delete — it
// is never lost (§III.D.3 applied to deletion).
func (r *Region) deleteIf(cache *memcache.Client, now *vclock.Time, path string, cond memcache.Cond, seq uint64) error {
	r.cacheRPCs.Add(1)
	_, done, err := cache.DeleteIf(*now, path, cond, seq)
	*now = done
	if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	return nil
}

// dropOp abandons an operation. An abandoned creation's cache entry is
// the primary copy of metadata that will never reach the DFS (e.g. a
// create accepted in the closing instants of an rmdir window whose
// parent is gone): delete it — guarded by seq, so a newer incarnation
// survives — rather than leave a permanently dirty phantom. reason (one
// of the dropReason* constants) labels the per-reason counter and the
// drop trace event: dropped ops never record a commit lag, so the
// reasons are what keeps the histogram's silence interpretable.
func (r *Region) dropOp(op Op, now *vclock.Time, cache *memcache.Client, reason string) {
	r.dropped.Add(1)
	switch reason {
	case dropReasonRetryBudget:
		r.droppedRetry.Add(1)
	case dropReasonKindConflict:
		r.droppedConflict.Add(1)
	default:
		r.droppedBackend.Add(1)
	}
	r.opTerminal(op, obs.StageDrop, reason)
	switch op.Kind {
	case OpCreate, OpMkdir:
		r.deleteIf(cache, now, op.Path, memcache.CondSeq, op.Seq)
	case OpRemove:
		// An abandoned remove's marker would otherwise sit dirty in the
		// cache forever; drop it (same guard as finishRemove) and let
		// reads fall through to whatever the DFS still holds.
		r.deleteIf(cache, now, op.Path, memcache.CondSeqRemoved, op.Seq)
	}
}

// backendStatFresh reads an authoritative stat, bypassing the
// backend's client-local lookup cache when it keeps one (see
// dfs.Client.StatFresh). Commit processes share long-lived backends
// whose dentry snapshots lag every asynchronous commit, so decisions
// about the current DFS state must never come from plain Stat.
func backendStatFresh(b Backend, at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	if f, ok := b.(interface {
		StatFresh(vclock.Time, string) (fsapi.Stat, vclock.Time, error)
	}); ok {
		return f.StatFresh(at, p)
	}
	return b.Stat(at, p)
}

// cacheLookup fetches and decodes a cache value.
func (r *Region) cacheLookup(path string, now *vclock.Time, cache *memcache.Client) (cacheVal, bool) {
	r.cacheRPCs.Add(1)
	item, done, err := cache.Get(*now, path)
	*now = done
	if err != nil {
		return cacheVal{}, false
	}
	v, derr := decodeCacheVal(item.Value)
	if derr != nil {
		return cacheVal{}, false
	}
	return v, true
}

// clearDirty clears the dirty flag for the op's seq: the backup copy now
// matches this version. A newer seq means another mutation is in flight
// and its own commit will clear the flag; the cache server checks the seq
// under its shard lock, in one round trip.
func (r *Region) clearDirty(op Op, now *vclock.Time, cache *memcache.Client) {
	r.cacheRPCs.Add(1)
	_, done, _ := cache.ClearDirty(*now, op.Path, op.Seq)
	*now = done
}

// finishRemove deletes the removed marker from the cache once the remove
// committed ("their cached metadata are deleted after the operations are
// committed", §III.D.1) — unless a newer incarnation replaced it: the
// delete is conditional on the marker still carrying this remove's seq,
// so a create-after-rm's fresh entry is never destroyed.
func (r *Region) finishRemove(op Op, now *vclock.Time, cache *memcache.Client) {
	r.deleteIf(cache, now, op.Path, memcache.CondSeqRemoved, op.Seq)
}

// writebackInline writes a newly created small file's bytes to the DFS.
func (r *Region) writebackInline(path string, inline []byte, now *vclock.Time, backend Backend) {
	if len(inline) == 0 {
		return
	}
	r.backendRPCs.Add(1)
	done, err := backend.WriteAt(*now, path, 0, inline)
	*now = done
	if err != nil {
		r.dropped.Add(1)
	}
}

// writebackSpill writes fsync-spilled inline data to the DFS after the
// file's create committed (§III.D.2).
func (r *Region) writebackSpill(path string, now *vclock.Time, backend Backend) {
	data, ok := r.spillTake(path)
	if !ok {
		return
	}
	r.backendRPCs.Add(1)
	done, err := backend.WriteAt(*now, path, 0, data)
	*now = done
	if err != nil {
		r.dropped.Add(1)
	}
}
