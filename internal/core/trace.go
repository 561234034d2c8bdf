package core

import "pacon/internal/obs"

// This file is the commit pipeline's seam to internal/obs. Every hook
// goes through the one *obs.Node an op carries (Op.tel) and records
// WALL-clock time: virtual time measures the modeled system, while spans
// and stage histograms profile the real process so perf work can see
// where wall time goes. The disabled path (Deps.Obs == nil) costs one
// branch per hook — no node exists, no span is allocated (Op.Span stays
// 0), and nothing reads a clock.

// trace records one stage event on the op's span.
func (op *Op) trace(stage obs.Stage, note string) {
	if op.tel != nil {
		op.tel.Event(op.Span, op.Sampled, stage, op.Kind.String(), op.Path, note)
	}
}

// observeDequeue records the dequeue stage and queue residency of a
// popped batch.
func (r *Region) observeDequeue(ops []Op) {
	if r.obs == nil {
		return
	}
	for i := range ops {
		op := &ops[i]
		op.tel.Dequeue(op.Span, op.Sampled, op.EnqWall, op.Kind.String(), op.Path)
	}
}

// opTerminal is the one terminal hook. Every op that entered a queue
// reaches it exactly once — committed (stage apply), discarded, dropped,
// absorbed into a coalesced survivor, or lost with its node — and it
// releases everything the op holds together: the path-tracker reference
// scoped barriers wait on, its place on the parked-ops gauge if it ever
// parked, the lag-tracker entry behind the staleness watermarks, and the
// span (terminal stage event, commit lag, sampled assembly or
// tail-keep). A terminal that released only some of them is how a
// crashed node used to leak sampled spans.
func (r *Region) opTerminal(op Op, stage obs.Stage, note string) {
	if t := r.trackers[op.Node]; t != nil {
		t.remove(op.Path)
	}
	if op.Parked {
		r.parked.Add(-1)
	}
	if op.tel == nil {
		return
	}
	r.lags[op.Node].remove(op.Path, op.EnqWall)
	lag := op.tel.Terminal(op.Span, op.Sampled, op.Parked, op.EnqWall, stage, op.Kind.String(), op.Path, note)
	if stage == obs.StageApply {
		r.noteCommitLag(lag)
	}
}

// opCommitted accounts a durably applied op; its enqueue → durable lag
// is how far the backup copy trailed the primary.
func (r *Region) opCommitted(op Op) {
	r.committed.Add(1)
	r.opTerminal(op, obs.StageApply, "")
}

// opDiscarded accounts an op dropped under an active rmdir (§III.D.1).
func (r *Region) opDiscarded(op Op) {
	r.discarded.Add(1)
	r.opTerminal(op, obs.StageDiscard, "under active rmdir")
}

// commitTrace tags the commit process's backend caller with a sampled
// op's span for the length of a wave, and remembers it for the one cache
// read a wave can make (classify tags that read alone), so the
// server-side events of the wave's RPCs (the apply_batch and the data
// writes, the cache lookup of an ErrExist) land in the originating client
// op's span — the span of the wave's first sampled op, on a first attempt
// and on a resubmission alike. No settle_multi is ever tagged: the
// settles leaving beside this wave's batch are the previous wave's, and
// this wave's own leave after every op of it has reached its terminal.
// Returns the untag closure, or nil for unsampled ops (the common case —
// no allocation).
func (c *committer) commitTrace(op Op) func() {
	if !op.Sampled || op.Span == 0 {
		return nil
	}
	c.span = op.Span
	c.backend.SetTrace(op.Span)
	return func() {
		c.span = 0
		c.backend.ClearTrace()
	}
}
