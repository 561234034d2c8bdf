package core

import (
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// This file is the commit pipeline's seam to internal/obs. Every hook
// goes through the *obs.Node of the node an op carries and records
// WALL-clock time: virtual time measures the modeled system, while spans
// and stage histograms profile the real process so perf work can see
// where wall time goes. The disabled path (Deps.Obs == nil) costs one
// branch per hook — no node exists, no span is allocated (Op.Span stays
// 0), and nothing reads a clock.

// trace records one stage event on a sampled op's span (a sampled op's
// node always has a handle); an unsampled op records nothing.
func (op *Op) trace(stage obs.Stage, note string) {
	if op.Sampled {
		op.node.tel.Event(op.Span, true, stage, op.Kind.String(), op.Path, note)
	}
}

// observeDequeue records the dequeue stage and queue residency of a
// popped batch.
func (c *committer) observeDequeue(ops []Op) {
	if c.node.tel == nil {
		return
	}
	for i := range ops {
		op := &ops[i]
		c.node.tel.Dequeue(op.Span, op.Sampled, op.EnqWall, op.Kind.String(), op.Path)
	}
}

// opTerminal is the one terminal hook. Every op a client queued reaches it
// exactly once — committed (stage apply), discarded, dropped, absorbed
// into a coalesced survivor, lost with its node or refused by a closed
// queue — and it releases everything the op holds together: its reference
// in its node's in-flight table — what scoped barriers, crossings and the
// staleness watermarks wait on, and with it its park if it ever parked —
// and the span (terminal stage event, commit lag, sampled assembly or
// tail-keep). A terminal that released only some of them is how a crashed
// node used to leak sampled spans. at is the terminal's virtual time,
// which an ack parked on the node's bound pays.
func (r *Region) opTerminal(op Op, at vclock.Time, stage obs.Stage, note string) {
	n := op.node
	if n == nil {
		return
	}
	n.inflight.release(op.Path, op.EnqWall, at, op.Parked)
	if n.tel == nil {
		return
	}
	lag := n.tel.Terminal(op.Span, op.Sampled, op.Parked, op.EnqWall, stage, op.Kind.String(), op.Path, note)
	if stage == obs.StageApply {
		r.noteCommitLag(lag)
	}
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
