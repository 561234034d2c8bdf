package core

import (
	"errors"
	"fmt"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/mq"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// pendingSet keeps failed non-dependent commits awaiting resubmission
// (§III.E.1: "we only need to resubmit the operation until it succeeds")
// in arrival order, plus the set of their paths so later same-path ops
// can be held back. region carries the parked-ops gauge.
type pendingSet struct {
	ops   []Op
	paths map[string]struct{}

	region *Region
}

// add parks an op: the first time it fails, or is held behind a parked
// same-path op (why says which, on the park event), and again each time
// a sweep's resubmission of it fails. The Parked flag marks the stored
// copy a resubmission from then on — the tail sampler always keeps such
// spans, and the op's terminal takes it off the parked-ops gauge.
func (p *pendingSet) add(op Op, why string) {
	if !op.Parked {
		op.Parked = true
		p.region.parked.Add(1)
		op.trace(obs.StagePark, why)
	}
	if p.paths == nil {
		p.paths = make(map[string]struct{})
	}
	p.ops = append(p.ops, op)
	p.paths[op.Path] = struct{}{}
}

func (p *pendingSet) blocks(path string) bool {
	_, ok := p.paths[path]
	return ok
}

// detach empties the set into a sweep's hands: the sweep resubmits the
// returned ops in order and add puts back the ones that fail again, so
// the path set never outlives the ops that justify it. The returned
// slice shares the set's storage — the sweep copies each chunk out
// before applying it, and no more ops come back than have been copied.
func (p *pendingSet) detach() []Op {
	ops := p.ops
	p.ops = p.ops[:0]
	clear(p.paths)
	return ops
}

// committer is one node's commit process: the subscriber of the node's
// commit queue. It applies operations to the DFS through the node's own
// backend client, participates in barrier epochs, and maintains the
// cache's dirty/removed bookkeeping. Everything below the dequeue runs
// on the process's one goroutine, so the state here — the virtual clock,
// the pending set, and the scratch a wave is built in — needs no lock
// and is reused from one dequeue to the next.
//
// Operations are dequeued up to CommitBatchSize at a time (never across
// a barrier marker), same-path runs are coalesced (see coalesceOps), and
// each wave of independent-path ops costs one apply_batch round trip to
// the DFS and then one settle_multi round trip per owning cache server
// (see applyOps, the one way an op reaches the DFS, and settle).
//
// Resubmission policy: a failed op parks in the pending set while
// *other-path* ops continue — that is what converges creations enqueued
// before their parents (cross-queue dependencies, or applications that
// disabled the parent check). Same-path ops never overtake a parked one:
// reordering a create → rm → create chain can commit the re-creation
// first and then let the retried remove delete the wrong incarnation.
// Per-queue per-path FIFO is exactly the order the paper's §III.E
// argument presumes.
type committer struct {
	r       *Region
	backend Backend
	cache   *memcache.Client
	now     vclock.Time
	pending pendingSet

	// Scratch, valid within one dequeue or one chunk of a sweep (ops,
	// coalesce), one wave (inWave, wave, bops) or until the next settle
	// (settles). Nothing outlives the loop iteration that filled it:
	// parking copies the Op it keeps.
	ops      []Op
	coalesce map[string]int
	inWave   map[string]struct{}
	wave     []Op
	bops     []fsapi.BatchOp
	settles  []memcache.Settle
}

func (r *Region) newCommitter(node string, backend Backend) *committer {
	return &committer{
		r:        r,
		backend:  backend,
		cache:    memcache.NewClient(rpc.NewCaller(r.deps.Bus, r.cfg.Model, node), r.ring),
		pending:  pendingSet{region: r},
		coalesce: make(map[string]int, r.cfg.CommitBatchSize),
		inWave:   make(map[string]struct{}, r.cfg.CommitBatchSize),
	}
}

// run is the commit loop; it returns when the queue or the barrier
// closes.
func (c *committer) run(q *mq.Queue[Op]) {
	r := c.r
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
		ops, isBarrier, epoch, ok := q.PopBatchInto(c.ops, r.cfg.CommitBatchSize)
		if ops != nil {
			c.ops = ops
		}
		if !ok {
			// Queue closed: push out whatever can still commit.
			c.drainPending()
			return
		}
		if isBarrier {
			// Everything before the marker must reach the DFS before we
			// report arrival (§III.E.2).
			c.drainPending()
			r.barrier.Arrive(epoch, c.now)
			rel, err := r.barrier.AwaitRelease(epoch)
			if err != nil {
				return
			}
			c.now = vclock.Max(c.now, rel)
			continue
		}
		r.observeDequeue(ops)
		ops, merged := coalesceOps(ops, c.coalesce, onMerge)
		r.coalesced.Add(merged)
		c.applyOps(ops, false)
		// Opportunistic pass: earlier failures often just needed a
		// sibling queue to commit a parent. Uncounted — only forced
		// drains consume the resubmission budget.
		c.retryPendingOnce(false)
	}
}

// applyOps is the one way an op reaches the DFS, whatever hands it over:
// a fresh dequeue or a chunk of a resubmission sweep (whose ops carry
// Parked; counted says whether their failures are charged to the retry
// budget). It cuts ops into waves of at most one op per path (per-path
// FIFO — a same-path follower waits for the next wave, and parks if its
// predecessor parked) and a wave is the discard rule as it is built, one
// ApplyBatch and the data writes (applyWave), and one settle. ops is
// compacted in place into the next wave's input (the write index never
// passes the read index).
func (c *committer) applyOps(ops []Op, counted bool) {
	r := c.r
	for len(ops) > 0 {
		rest := ops[:0]
		clear(c.inWave)
		c.wave = c.wave[:0]
		for _, op := range ops {
			if _, dup := c.inWave[op.Path]; dup {
				rest = append(rest, op)
				continue
			}
			if c.pending.blocks(op.Path) {
				// Preserve per-path order behind the parked op.
				c.pending.add(op, "behind parked same-path op")
				continue
			}
			c.inWave[op.Path] = struct{}{}
			if op.Parked {
				r.retries.Add(1)
				op.trace(obs.StageRetry, "")
			}
			if (op.Kind == OpCreate || op.Kind == OpMkdir) && r.isRemoving(op.Path) {
				// Discard rule: creations inside a directory being removed
				// never reach the DFS, and their cache entries are cleaned
				// (§III.D.1) — but only this op's incarnation (seq match):
				// a newer incarnation created after the rmdir window closed
				// is live primary-copy metadata and must survive.
				r.opDiscarded(op)
				c.deleteIf(op, memcache.CondSeq)
				c.now = vclock.Max(c.now, op.Time)
				op.unparked()
				continue
			}
			c.wave = append(c.wave, op)
		}
		c.applyWave(counted)
		c.settle()
		ops = rest
	}
}

// inlineWrite reports whether op is an inline setstat. That is a data
// write: it commits through the file interface, which carries both the
// bytes and the size update, and never rides a metadata batch.
func (op *Op) inlineWrite() bool { return op.Kind == OpSetStat && len(op.Stat.Inline) > 0 }

// unparked closes a resubmitted op's stay in the pending set.
func (op *Op) unparked() {
	if op.Parked {
		op.trace(obs.StageUnpark, "")
	}
}

// applyWave applies c.wave, ops on distinct paths: every metadata op in
// one ApplyBatch — eight ops or one, first attempt or fiftieth — and
// then, in op order, each inline setstat's data write and each op's
// result handler (a landed create's handler writes its inline and
// spilled bytes back). A batch-level error is the result of every op in
// the batch. An op whose handler asks for resubmission parks, on a
// counted sweep after paying one attempt of its budget.
func (c *committer) applyWave(counted bool) {
	r := c.r
	// The first sampled op's span tags the whole wave's round trips — a
	// batch is one wire-level apply, so its server events belong to one
	// representative span.
	for _, op := range c.wave {
		if op.Sampled {
			if untag := c.commitTrace(op); untag != nil {
				defer untag()
			}
			break
		}
	}
	t := c.now
	c.bops = c.bops[:0]
	for i := range c.wave {
		op := &c.wave[i]
		if op.inlineWrite() {
			continue
		}
		t = vclock.Max(t, op.Time)
		bop := fsapi.BatchOp{Path: op.Path}
		switch op.Kind {
		case OpCreate, OpMkdir:
			bop.Kind = fsapi.BatchCreate
			if op.Kind == OpMkdir {
				bop.Kind = fsapi.BatchMkdir
			}
			// The DFS backup copy keeps small-file data on the data
			// path, not in MDS metadata: the inline bytes are written
			// through the file interface after the create lands.
			bop.Stat = op.Stat
			bop.Stat.Inline = nil
		case OpSetStat:
			bop.Kind = fsapi.BatchSetStat
			bop.Stat = op.Stat
		case OpRemove:
			bop.Kind = fsapi.BatchRemove
			bop.IfExists = op.NetAbsent
		}
		c.bops = append(c.bops, bop)
	}
	var errs []error
	var batchErr error
	if len(c.bops) > 0 {
		errs, batchErr = c.applyBatch(t, c.bops)
	}
	next := 0 // position in errs of the next metadata op
	for _, op := range c.wave {
		var retry bool
		if op.inlineWrite() {
			r.backendRPCs.Add(1)
			done, err := c.backend.WriteAt(vclock.Max(c.now, op.Time), op.Path, 0, op.Stat.Inline)
			c.now = done
			retry = c.finishSetStat(op, err)
		} else {
			err := batchErr
			if err == nil {
				err = errs[next]
			}
			next++
			switch op.Kind {
			case OpCreate, OpMkdir:
				retry = c.finishCreate(op, err)
			case OpSetStat:
				retry = c.finishSetStat(op, err)
			case OpRemove:
				retry = c.finishRemoveResult(op, err)
			}
		}
		if !retry {
			op.unparked()
			continue
		}
		if counted {
			if op.attempts++; int(op.attempts) >= r.cfg.CommitRetryLimit {
				c.dropOp(op, dropReasonRetryBudget)
				continue
			}
		}
		c.pending.add(op, "resubmittable failure")
	}
}

// applyBatch is every metadata mutation the commit side makes: one
// Backend.ApplyBatch of bops leaving at t, be they a wave or the one-op
// setstat of an adoption. It returns the per-op results, or the
// batch-level error of a backend that could not say more — which callers
// read as the result of every op in the batch: the finish* handlers
// resubmit ErrClosed and ErrStale and drop on anything else, as they
// would for an op sent alone.
func (c *committer) applyBatch(t vclock.Time, bops []fsapi.BatchOp) ([]error, error) {
	r := c.r
	r.batchRPCs.Add(1)
	r.batchedOps.Add(int64(len(bops)))
	r.backendRPCs.Add(1)
	errs, done, err := c.backend.ApplyBatch(t, bops)
	c.now = done
	if err != nil {
		r.batchFallbacks.Add(1)
	}
	return errs, err
}

// retryPendingOnce sweeps the pending set once, in arrival order and in
// chunks of CommitBatchSize — the width every other wave has, so a sweep
// holds an MDS worker no longer than a dequeue does and at width 1 still
// sends one op per round trip. It applies nothing itself: each chunk
// goes through applyOps, where an op that fails again re-parks, keeping
// every later same-path op parked for the rest of the sweep. When
// counted is true, failures consume the budget.
func (c *committer) retryPendingOnce(counted bool) {
	parked := c.pending.detach()
	for len(parked) > 0 {
		n := min(len(parked), c.r.cfg.CommitBatchSize)
		c.ops = append(c.ops[:0], parked[:n]...)
		c.applyOps(c.ops, counted)
		parked = parked[n:]
	}
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
func (c *committer) drainPending() {
	r := c.r
	progress := func() int64 {
		return r.committed.Load() + r.discarded.Load() + r.dropped.Load()
	}
	last := int64(-1)
	for len(c.pending.ops) > 0 {
		snap := progress()
		c.retryPendingOnce(snap == last)
		last = snap
		if progress() == snap {
			time.Sleep(time.Millisecond)
		}
	}
}

// finishCreate handles a create/mkdir's backend result; it returns true
// if the op must be resubmitted.
func (c *committer) finishCreate(op Op, err error) bool {
	r := c.r
	switch {
	case err == nil:
		r.opCommitted(op)
		c.writeback(op.Path, op.Stat.Inline)
		c.writebackSpill(op.Path)
		c.clearDirty(op)
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
		if v, ok := c.cacheLookup(op.Path); ok && !v.removed {
			if v.seq != op.Seq || !v.dirty {
				r.opCommitted(op)
				c.writebackSpill(op.Path)
				c.clearDirty(op)
				return false
			}
			if !op.AfterRm {
				st := op.Stat
				st.Inline = nil
				r.backendRPCs.Add(1)
				est, done, serr := c.backend.Stat(c.now, op.Path)
				c.now = done
				if serr != nil {
					return true // vanished underneath us: retry the create
				}
				if est.IsDir() != st.IsDir() {
					// A different kind of object holds the name; the
					// creation can never apply.
					c.dropOp(op, dropReasonKindConflict)
					return false
				}
				// The wave's batch has been answered; its scratch is free.
				c.bops = append(c.bops[:0], fsapi.BatchOp{Kind: fsapi.BatchSetStat, Path: op.Path, Stat: st})
				if errs, aerr := c.applyBatch(c.now, c.bops); aerr != nil || errs[0] != nil {
					return true
				}
				r.opCommitted(op)
				c.writeback(op.Path, op.Stat.Inline)
				c.writebackSpill(op.Path)
				c.clearDirty(op)
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
		c.dropOp(op, dropReasonBackendError)
		return false
	}
}

// finishRemoveResult handles a remove's backend result; it returns true
// if the op must be resubmitted.
func (c *committer) finishRemoveResult(op Op, err error) bool {
	r := c.r
	switch {
	case err == nil:
		r.opCommitted(op)
		c.finishRemove(op)
		return false
	case errors.Is(err, fsapi.ErrNotExist):
		if op.NetAbsent {
			// Net-absence remove: the folded create never reached the
			// DFS, so an absent path IS the committed state.
			r.opCommitted(op)
			c.finishRemove(op)
			return false
		}
		// The create this remove shadows may still be queued on
		// another node — resubmit; if it was discarded under an
		// rmdir, the retry limit cleans us up.
		if r.isRemoving(op.Path) {
			r.opDiscarded(op)
			c.finishRemove(op)
			return false
		}
		return true
	case errors.Is(err, fsapi.ErrClosed), errors.Is(err, fsapi.ErrStale):
		return true // shard down / intent-blocked: transient
	default:
		c.dropOp(op, dropReasonBackendError)
		return false
	}
}

// finishSetStat handles a setstat/inline-write backend result; it
// returns true if the op must be resubmitted.
func (c *committer) finishSetStat(op Op, err error) bool {
	r := c.r
	switch {
	case err == nil:
		r.opCommitted(op)
		c.clearDirty(op)
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
		c.dropOp(op, dropReasonBackendError)
		return false
	}
}

// dropOp abandons an operation. An abandoned creation's cache entry is
// the primary copy of metadata that will never reach the DFS (e.g. a
// create accepted in the closing instants of an rmdir window whose
// parent is gone): delete it — guarded by seq, so a newer incarnation
// survives — rather than leave a permanently dirty phantom. reason (one
// of the dropReason* constants) labels the per-reason counter and the
// drop trace event: dropped ops never record a commit lag, so the
// reasons are what keeps the histogram's silence interpretable.
func (c *committer) dropOp(op Op, reason string) {
	r := c.r
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
		c.deleteIf(op, memcache.CondSeq)
	case OpRemove:
		// An abandoned remove's marker would otherwise sit dirty in the
		// cache forever; drop it (same guard as finishRemove) and let
		// reads fall through to whatever the DFS still holds.
		c.deleteIf(op, memcache.CondSeqRemoved)
	}
}

// The three functions below are every cache cleanup the commit module
// performs, and none of them talks to the cache: each appends one entry
// to c.settles, and settle sends the list. Deferring a cleanup past the
// ops that follow it in the wave is safe because every entry is guarded
// by its own op's seq and evaluated under the cache server's shard lock
// when it does run: a write that lands in between carries a newer seq,
// so the entry no longer matches and does nothing — exactly what
// happened when the write won the race against an immediate cleanup.
// Until the settle runs the entry merely stays dirty (or stays a removed
// marker), which readers and eviction already treat as "commit in
// flight". A later op on the same path in the same dequeue cannot be
// misled either: it carries a newer seq than the entry being settled,
// so that entry was already dead when it was queued.

// clearDirty clears the dirty flag for the op's seq: the backup copy now
// matches this version. A newer seq means another mutation is in flight
// and its own commit will clear the flag.
func (c *committer) clearDirty(op Op) {
	c.settles = append(c.settles, memcache.Settle{Key: op.Path, Seq: op.Seq, Clear: true})
}

// deleteIf deletes the op's cache entry while cond holds for the op's
// seq, so an update racing the cleanup either lands first (and the
// predicate sees it) or lands after the delete — it is never lost
// (§III.D.3 applied to deletion).
func (c *committer) deleteIf(op Op, cond memcache.Cond) {
	c.settles = append(c.settles, memcache.Settle{Key: op.Path, Seq: op.Seq, Cond: cond})
}

// finishRemove deletes the removed marker from the cache once the remove
// committed ("their cached metadata are deleted after the operations are
// committed", §III.D.1) — unless a newer incarnation replaced it: the
// delete is conditional on the marker still carrying this remove's seq,
// so a create-after-rm's fresh entry is never destroyed.
func (c *committer) finishRemove(op Op) {
	c.deleteIf(op, memcache.CondSeqRemoved)
}

// settle sends the cleanups gathered since the last call: one
// settle_multi round trip per owning cache server, all leaving at the
// process's current virtual time. Every path that appends to c.settles
// ends in a settle before the loop dequeues again or arrives at a
// barrier, so a drained region has no cleanup outstanding. A cache
// server that cannot be reached loses its share, as it lost the
// single-key cleanups before: the entries it holds are gone with it.
func (c *committer) settle() {
	if len(c.settles) == 0 {
		return
	}
	_, owners, done, _ := c.cache.SettleMulti(c.now, c.settles)
	c.settles = c.settles[:0]
	c.r.cacheRPCs.Add(int64(owners))
	c.now = done
}

// cacheLookup fetches and decodes a cache value.
func (c *committer) cacheLookup(path string) (cacheVal, bool) {
	c.r.cacheRPCs.Add(1)
	item, done, err := c.cache.Get(c.now, path)
	c.now = done
	if err != nil {
		return cacheVal{}, false
	}
	v, derr := decodeCacheVal(item.Value)
	if derr != nil {
		return cacheVal{}, false
	}
	return v, true
}

// writebackSpill writes fsync-spilled inline data to the DFS after the
// file's create committed (§III.D.2).
func (c *committer) writebackSpill(path string) {
	if data, ok := c.r.spillTake(path); ok {
		c.writeback(path, data)
	}
}

// writeback writes a committed create's bytes, if it has any, through
// the file interface. A failure loses acked data and is counted as a
// backend_error drop, like every drop under one of the reasons (see
// dropOp), though no op ends here: the create has committed.
func (c *committer) writeback(path string, data []byte) {
	if len(data) == 0 {
		return
	}
	c.r.backendRPCs.Add(1)
	done, err := c.backend.WriteAt(c.now, path, 0, data)
	c.now = done
	if err != nil {
		c.r.dropped.Add(1)
		c.r.droppedBackend.Add(1)
	}
}
