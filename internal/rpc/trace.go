package rpc

import "time"

// Wire-propagated trace context. A client op sampled by the obs tail
// sampler tags its Caller with a TraceContext; every RPC the caller
// issues then carries the context to the service, and the serving side
// (Bus dispatch or the TCP server) reports recv/done to its
// SpanObserver — so memcache servers and the DFS backend record events
// into the *same* span as the originating client op, across transports
// and across OS processes.
//
// The context packs into one uint64 (span<<9 | hops<<1 | sampled), and
// rides the existing frame/dispatch path (ReplyInvoker.InvokeInto): an
// untraced call packs to 0 and costs one uvarint byte on the TCP wire,
// nothing on the Bus. A transport that is not a ReplyInvoker never sees
// trace contexts.

// TraceContext is the compact per-RPC trace tag.
type TraceContext struct {
	// Span is the originating op's span ID (0 = untraced).
	Span uint64
	// Sampled marks spans the tail sampler is assembling; only sampled
	// contexts trigger server-side event recording.
	Sampled bool
	// Hops counts RPC boundaries crossed, incremented per forward —
	// a loop guard and a depth signal for the assembled timeline.
	Hops uint8
}

// pack serializes to the one-word wire form. Span IDs are sequence
// numbers; 2^55 of them is out of reach, so the shift is lossless.
func (tc TraceContext) pack() uint64 {
	v := tc.Span<<9 | uint64(tc.Hops)<<1
	if tc.Sampled {
		v |= 1
	}
	return v
}

// unpackTrace reverses pack.
func unpackTrace(v uint64) TraceContext {
	return TraceContext{
		Span:    v >> 9,
		Sampled: v&1 != 0,
		Hops:    uint8(v >> 1),
	}
}

// SpanObserver is the optional server-side extension of RPCObserver:
// when the installed observer also implements it, every dispatch that
// carried a sampled trace context reports the span, the serving
// address, and the wall-clock window of the handler run. Built-ins
// only, same as RPCObserver, so internal/obs can implement it without
// an import cycle.
type SpanObserver interface {
	ObserveServerSpan(span uint64, hop uint8, addr, method string, start time.Time, d time.Duration, err error)
}

// SetTrace tags every subsequent Call from this caller with the span's
// trace context (sampled, hop 0). Callers are per-client/per-commit-
// loop, but the tag is atomic so a racing read at worst mis-tags one
// RPC; span 0 clears.
func (c *Caller) SetTrace(span uint64) {
	if span == 0 {
		c.trace.Store(0)
		return
	}
	c.trace.Store(TraceContext{Span: span, Sampled: true}.pack())
}

// ClearTrace removes the tag.
func (c *Caller) ClearTrace() { c.trace.Store(0) }
