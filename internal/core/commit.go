package core

import (
	"errors"
	"fmt"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// pendingSet keeps failed non-dependent commits awaiting resubmission
// (§III.E.1: "we only need to resubmit the operation until it succeeds")
// in arrival order, plus the set of their paths so later same-path ops
// can be held back.
type pendingSet struct {
	ops   []Op
	paths map[string]struct{}
}

// add parks an op: the first time it fails, or is held behind a parked
// same-path op (why says which, on the park event), and again each time
// a sweep's resubmission of it fails. The first park is counted in the
// op's in-flight table, and the Parked flag marks the stored copy a
// resubmission from then on — the tail sampler always keeps such spans,
// and the op's terminal gives the park back with its reference.
func (p *pendingSet) add(op Op, why string) {
	if !op.Parked {
		op.Parked = true
		op.node.inflight.park(op.Path)
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
// backend client, participates in barrier epochs, maintains the cache's
// dirty/removed bookkeeping and gives back, op by op, the references
// clients took in the node's in-flight table. Everything below the
// dequeue runs on the process's one goroutine, so the state here — the
// virtual clock, the pending set, and the scratch a wave is built in —
// needs no lock and is reused from one dequeue to the next.
//
// Operations are dequeued up to CommitBatchSize at a time (never across
// a barrier marker), same-path runs are coalesced (see coalesceOps), and
// each wave of independent-path ops costs one Backend.ApplyBatch (the DFS
// client sends it as one apply_batch per owning MDS and directory group,
// all leaving at once, so it waits for the largest group), one
// write_multi per data server if the wave owes bytes, and
// one settle_multi round trip per owning cache server — which the
// process does not wait for on its own: it leaves beside the next wave's
// apply_batch (see applyOps, the one way an op reaches the DFS, and
// settle).
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
	node    *node
	backend Backend
	cache   *memcache.Client
	now     vclock.Time
	pending pendingSet

	// Scratch, valid within one dequeue or one chunk of a sweep (ops,
	// coalesce), one wave (inWave, wave, bops, verdicts, writes) or until
	// the next batch or settle (settles). Nothing outlives the loop
	// iteration that filled it: parking copies the Op it keeps.
	ops      []Op
	coalesce map[string]int
	inWave   map[string]struct{}
	wave     []Op
	bops     []fsapi.BatchOp
	verdicts []commitVerdict
	writes   []fsapi.FileWrite
	settles  []memcache.Settle

	// span is the trace context of the wave being applied (0: no op of it
	// is sampled); see commitTrace.
	span uint64
}

func (r *Region) newCommitter(n *node, backend Backend) *committer {
	return &committer{
		r:        r,
		node:     n,
		backend:  backend,
		cache:    memcache.NewClient(rpc.NewCaller(r.deps.Bus, r.cfg.Model, n.name), r.ring),
		coalesce: make(map[string]int, r.cfg.CommitBatchSize),
		inWave:   make(map[string]struct{}, r.cfg.CommitBatchSize),
	}
}

// run is the commit loop; it returns when the queue or the barrier
// closes.
func (c *committer) run() {
	r, q := c.r, c.node.queue
	// onMerge retires the absorbed op: the survivor carries the path to
	// its own terminal, and the absorbed span ends here with a coalesce
	// event naming the span its effect now rides.
	onMerge := func(survivor, absorbed Op) {
		note := ""
		if c.node.tel != nil {
			note = fmt.Sprintf("into span %d", survivor.Span)
		}
		r.opTerminal(absorbed, c.now, obs.StageCoalesce, note)
	}

	defer r.mark(c.node, held) // returned: it never moves again
	for {
		empty := q.Len() == 0
		if empty {
			// Nothing queued for the last wave's settles to leave beside:
			// an idle node's entries become clean now, not when the next
			// op happens to arrive.
			c.settle()
			r.mark(c.node, idle)
		}
		ops, isBarrier, epoch, ok := q.PopBatchInto(c.ops, r.cfg.CommitBatchSize)
		if empty {
			r.mark(c.node, moving)
		}
		if ops != nil {
			c.ops = ops
		}
		if !ok {
			// Queue closed: push out whatever can still commit.
			c.drainPending()
			c.settle()
			return
		}
		if isBarrier {
			// Everything before the marker must reach the DFS, and every
			// cleanup the cache, before we report arrival (§III.E.2).
			c.drainPending()
			c.settle()
			r.barrier.Arrive(epoch, c.now)
			r.mark(c.node, held)
			rel, err := r.barrier.AwaitRelease(epoch)
			r.mark(c.node, moving)
			if err != nil {
				return
			}
			c.now = vclock.Max(c.now, rel)
			continue
		}
		c.observeDequeue(ops)
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
// predecessor parked) and a wave is the discard rule as it is built, then
// applyWave. ops is compacted in place into the next wave's input (the
// write index never passes the read index).
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
				c.conclude(op, rowDiscardCreate)
				c.now = vclock.Max(c.now, op.Time)
				op.unparked()
				continue
			}
			c.wave = append(c.wave, op)
		}
		if len(c.wave) > 0 {
			c.applyWave(counted)
		}
		ops = rest
	}
	if r.stall.waiting.Load() > 0 {
		r.mark(c.node, moving) // wake the stalled passes: progress may have moved
	}
}

// unparked closes a resubmitted op's stay in the pending set.
func (op *Op) unparked() {
	if op.Parked {
		op.trace(obs.StageUnpark, "")
	}
}

// applyWave applies c.wave, ops on distinct paths, in three steps. Every
// op is in the wave's one ApplyBatch — eight ops or one, first attempt or
// fiftieth, an inline setstat as the BatchSetStat it is (the DFS copy
// keeps small-file data on the data path, not in MDS metadata, so no
// BatchOp carries Inline) — and a batch-level error is the result of
// every op in the batch. Each result is classified (classify), nothing
// concluded yet. Then the bytes of every op that landed owing some go out
// in one Backend.WriteBatch: the batch just told the DFS each file's
// size, so the data path has nothing to ask the MDS. Only then does each
// op, in op order, reach its terminal and queue its settle (conclude):
// the terminal releases the path in the in-flight table, and a threshold
// crossing that finds it drained must not run beside bytes still in flight.
// A create whose bytes failed has committed all the same, less the data
// (lostBytes); a setstat is nothing but its bytes and takes their error
// as its result. An op whose row asks for resubmission parks, on a
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
		t = vclock.Max(t, op.Time)
		bop := fsapi.BatchOp{Path: op.Path}
		switch op.Kind {
		case OpCreate:
			bop.Kind = fsapi.BatchCreate
		case OpMkdir:
			bop.Kind = fsapi.BatchMkdir
		case OpSetStat:
			bop.Kind = fsapi.BatchSetStat
		case OpRemove:
			bop.Kind = fsapi.BatchRemove
			bop.IfExists = op.NetAbsent
		}
		if op.Kind != OpRemove {
			bop.Stat = op.Stat
			bop.Stat.Inline = nil
		}
		c.bops = append(c.bops, bop)
	}
	errs, batchErr := c.applyBatch(t, c.bops)

	c.verdicts, c.writes = c.verdicts[:0], c.writes[:0]
	for i := range c.wave {
		op := &c.wave[i]
		err := batchErr
		if err == nil {
			err = errs[i]
		}
		// The inode the bytes go to: the one the batch answered, or the
		// one an adoption set.
		ino := c.bops[i].Ino
		v := c.classify(op, err)
		if v.ino != 0 {
			ino = v.ino
		}
		// From here on inline says the op has bytes in this wave's write.
		if v.inline = v.inline && len(op.Stat.Inline) > 0; v.inline {
			c.writes = append(c.writes, fsapi.FileWrite{Path: op.Path, Ino: ino, Data: op.Stat.Inline})
		}
		c.verdicts = append(c.verdicts, v)
	}
	var werrs []error
	var writeErr error
	if len(c.writes) > 0 {
		r.backendRPCs.Add(1)
		werrs, c.now, writeErr = c.backend.WriteBatch(c.now, c.writes)
	}
	next := 0 // position in werrs of the next op that owed bytes
	for i := range c.wave {
		op, v := c.wave[i], c.verdicts[i]
		if v.inline {
			err := writeErr
			if err == nil {
				err = werrs[next]
			}
			next++
			switch {
			case err == nil:
			case op.Kind == OpSetStat:
				v = c.classify(&op, err)
			default:
				c.lostBytes()
			}
		}
		if !c.conclude(op, v) {
			op.unparked()
			continue
		}
		if counted {
			if op.attempts++; int(op.attempts) >= r.cfg.CommitRetryLimit {
				c.conclude(op, rowDrop(op.Kind, dropReasonRetryBudget))
				continue
			}
		}
		c.pending.add(op, "resubmittable failure")
	}
}

// applyBatch is every metadata mutation the commit side makes: one
// Backend.ApplyBatch of ops leaving at t, be they a wave's (c.bops) or
// the one-op setstat of an adoption. Settles still waiting (the previous
// wave's, and this wave's discards) leave beside it, from the same
// virtual instant, and the process goes on when both have answered: it
// waits for the MDS and not, on top of it, for the cache servers. Both
// are issued from this goroutine, one after the other, which is what
// rpc.Caller.FanOut does on a transport that runs handlers inline; over
// TCP a real fan-out would overlap the two waits, at two goroutines a
// wave (app_mix_tcp read +3.7 % alloc_b_per_op with it, past its bound),
// and issued in turn they take the wall time they took when the settle
// closed the wave. It returns the per-op results, or the batch-level
// error of a backend that could not say more — which callers read as the
// result of every op in the batch: commitOutcome resubmits ErrClosed and
// ErrStale and drops on anything else, as it would for an op sent alone.
func (c *committer) applyBatch(t vclock.Time, ops []fsapi.BatchOp) ([]error, error) {
	r := c.r
	r.batchRPCs.Add(1)
	r.batchedOps.Add(int64(len(ops)))
	r.backendRPCs.Add(1)
	settled := t
	if len(c.settles) > 0 {
		settled = c.sendSettles(t)
	}
	errs, done, err := c.backend.ApplyBatch(t, ops)
	c.now = vclock.Max(done, settled)
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
//
// A pending op waits on a dependency (typically its parent's create) that
// may sit deep in a sibling node's queue, and while any commit process can
// still land ops, that dependency may yet arrive. Batched dequeue makes
// this essential: a fast node reaches the barrier with its whole
// dependency frontier parked (a hundred ops is normal when the workload
// was enqueued up front), and charging its sweeps while a loaded sibling
// crawls through its queue would drop ops that were about to apply. So a
// pass that made no progress (committed + discarded + dropped) waits
// (Region.stallPass) until progress moves — the next pass is free — or
// until no commit process can move — it is charged. Termination rests on
// counts: queues are finite, so progress eventually stops, and from then
// on every pass is charged until CommitRetryLimit drops what still waits.
func (c *committer) drainPending() {
	r := c.r
	for counted := false; len(c.pending.ops) > 0; {
		snap := r.progress()
		c.retryPendingOnce(counted)
		counted = len(c.pending.ops) > 0 && r.progress() == snap && r.stallPass(c.node, snap)
	}
}

// progress is what the region's commit processes have concluded.
func (r *Region) progress() int64 {
	return r.committed.Load() + r.discarded.Load() + r.dropped.Load()
}

// commitState is whether a node's commit process can move (node.state,
// under the region's stall gate).
type commitState uint8

const (
	moving  commitState = iota
	idle                // blocked on its empty queue: held while it stays empty
	held                // awaiting a barrier's release, or returned
	stalled             // a pass that made no progress, until progress leaves node.snap
)

// mark sets n's commit process's state and wakes the stalled passes to
// look at it; a wave that concluded ops calls it with moving.
func (r *Region) mark(n *node, s commitState) {
	r.stall.mu.Lock()
	defer r.stall.mu.Unlock()
	n.state = s
	r.stall.cond.Broadcast()
}

// stallPass holds n's pass that made no progress since snap until
// progress moves (false: the next pass is free) or until no commit process
// can move (true: it is charged). The pass that finds the region quiet
// releases every stalled pass at once, so each gets its charged pass.
func (r *Region) stallPass(n *node, snap int64) bool {
	g := &r.stall
	g.mu.Lock()
	defer g.mu.Unlock()
	n.state, n.snap = stalled, snap
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	for g.cond.Broadcast(); ; g.cond.Wait() {
		switch {
		case r.progress() != snap:
			n.state = moving
			return false
		case n.state == moving: // released by a quiet region
			return true
		case r.quiet():
			for _, m := range r.nodes {
				if m.state == stalled {
					m.state = moving
				}
			}
			g.cond.Broadcast()
			return true
		}
	}
}

// quiet (the stall gate's mu held) reports that no commit process can
// move: each is held, stalled since the current progress, or blocked on a
// queue that is still empty.
func (r *Region) quiet() bool {
	for _, n := range r.nodes {
		if n.state == moving || n.state == idle && n.queue.Len() > 0 || n.state == stalled && n.snap != r.progress() {
			return false
		}
	}
	return true
}

// classify is the reading half of the commit table's executor
// (entry.go): what the DFS said to op with err, the cache entry if the row
// needs it, an adoption if the row asks for one, and the row that ends
// the attempt comes back for conclude to carry out.
func (c *committer) classify(op *Op, err error) commitVerdict {
	var ent cacheVal
	var present bool
	if needsEntry(op.Kind, err) {
		c.r.cacheRPCs.Add(1)
		// Tagged with the wave's span, if it has one (0 tags nothing); an
		// unreadable entry is an absent one.
		c.cache.SetTrace(c.span)
		ent, present, c.now, _ = readEntry(c.cache, c.now, op.Path)
		c.cache.ClearTrace()
	}
	// Only the ErrNotExist rows ask whether an rmdir is active.
	v := commitOutcome(op, err, errors.Is(err, fsapi.ErrNotExist) && c.r.isRemoving(op.Path), ent, present)
	if v.end == endAdopt {
		v = c.adopt(op)
	}
	return v
}

// adopt imposes a create's metadata on the object the DFS already holds
// under its path (commitOutcome's ErrExist row 3), and answers with the
// row that ends the op, carrying the adopted object's inode.
func (c *committer) adopt(op *Op) commitVerdict {
	r := c.r
	st := op.Stat
	st.Inline = nil
	r.backendRPCs.Add(1)
	est, done, err := c.backend.Stat(c.now, op.Path)
	c.now = done
	if err != nil {
		return rowResubmit // vanished underneath us: retry the create
	}
	if est.IsDir() != st.IsDir() {
		// A different kind of object holds the name; the creation can
		// never apply.
		return rowDrop(op.Kind, dropReasonKindConflict)
	}
	// Not in c.bops: the wave's inodes are still to be read.
	set := []fsapi.BatchOp{{Kind: fsapi.BatchSetStat, Path: op.Path, Stat: st}}
	if errs, aerr := c.applyBatch(c.now, set); aerr != nil || errs[0] != nil {
		return rowResubmit
	}
	v := rowCreateLanded
	v.ino = set[0].Ino
	return v
}

// conclude carries out one commit row: the op's terminal accounting, and
// the settle the cache entry is owed. The settle is not sent here: it
// joins c.settles, and leaves beside the next batch or in the next
// settle. Deferring a cleanup past the ops that follow it — in the wave,
// and now in the next wave — is safe because every entry is guarded by
// its own op's seq and evaluated under the cache server's shard lock
// when it does run: a write that
// lands in between carries a newer seq, so the entry no longer matches
// and does nothing — exactly what happened when the write won the race
// against an immediate cleanup. Until the settle runs the entry merely
// stays dirty (or stays a removed marker), which readers and eviction
// already treat as "commit in flight", and the node's in-flight table
// lists the path as owed (inflight.owe), which scoped barriers treat as
// pending. A later op on the same path cannot be misled either: it
// carries a newer seq than the entry being settled, so that entry was
// already dead when it was queued. It returns true for a resubmission,
// which concludes nothing.
func (c *committer) conclude(op Op, v commitVerdict) bool {
	r := c.r
	if v.end == endResubmit {
		return true
	}
	if v.settle != nil {
		// Conditional on the op's seq, so an update racing the cleanup
		// either lands first (and the predicate sees it) or lands after
		// it — it is never lost (§III.D.3 applied to deletion). Owed in
		// the in-flight table before the terminal takes the op out of it.
		s := *v.settle
		s.Key, s.Seq = op.Path, op.Seq
		c.settles = append(c.settles, s)
		c.node.inflight.owe(op.Path)
	}
	switch v.end {
	case endCommitted:
		r.committed.Add(1)
		r.opTerminal(op, c.now, obs.StageApply, "")
	case endDiscarded:
		r.discarded.Add(1)
		r.opTerminal(op, c.now, obs.StageDiscard, "under active rmdir")
	case endDrop:
		// reason (one of the dropReason* constants) labels the per-reason
		// counter and the drop trace event: dropped ops never record a
		// commit lag, so the reasons are what keeps the histogram's
		// silence interpretable.
		r.dropped.Add(1)
		switch v.reason {
		case dropReasonRetryBudget:
			r.droppedRetry.Add(1)
		case dropReasonKindConflict:
			r.droppedConflict.Add(1)
		default:
			r.droppedBackend.Add(1)
		}
		r.opTerminal(op, c.now, obs.StageDrop, v.reason)
	}
	return false
}

// settle sends, now and on their own, the cleanups that found no batch to
// leave beside. The loop calls it wherever the wait would otherwise be
// open-ended or observable — before it blocks on an empty queue, before
// it arrives at a barrier, when the queue closes — so an idle node's
// entries become clean and a drained region has no cleanup outstanding.
func (c *committer) settle() {
	if len(c.settles) > 0 {
		c.now = c.sendSettles(c.now)
	}
}

// sendSettles sends the cleanups conclude gathered: one settle_multi
// round trip per owning cache server, all leaving at at. A cache server
// that cannot be reached loses its share, as it lost the single-key
// cleanups before: the entries it holds are gone with it.
func (c *committer) sendSettles(at vclock.Time) vclock.Time {
	for _, s := range c.settles {
		if s.Cond == memcache.CondSeqRemoved {
			// A remove marker goes once its remove has landed: a load
			// that read the file on the DFS before that must not add it
			// to the emptied key (Region.loadToken).
			c.r.invalGen.Add(1)
			break
		}
	}
	_, owners, done, _ := c.cache.SettleMulti(at, c.settles)
	c.settles = c.settles[:0]
	c.node.inflight.settled()
	c.r.cacheRPCs.Add(int64(owners))
	return done
}

// lostBytes accounts a committed create's bytes that the data path
// refused. That loses acked data and is counted as a backend_error drop,
// like every drop under one of the reasons (see conclude), though no op
// ends here: the create has committed.
func (c *committer) lostBytes() {
	c.r.dropped.Add(1)
	c.r.droppedBackend.Add(1)
}
