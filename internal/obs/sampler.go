package obs

import "time"

// Tail-based span sampling. Every op gets a span ID and records its
// stage events into the per-node rings (zero-alloc); sampling decides
// which spans are additionally *assembled*: their events accumulate in
// an active-span buffer — including the server-side events other nodes
// contribute over the wire — and at the op's terminal the buffer is
// stitched into an ordered cross-node timeline with critical-path
// attribution (critpath.go).
//
// The policy is tail-based: 1 in SampleN ops is sampled up front, and
// ops that turn out anomalous — dropped, ever parked, or slower than
// the slow-span threshold — are kept at their terminal even when the
// head decision said no. The unsampled path does no locking and no
// allocation: one atomic add at op start, one compare at op end.

// DefaultSampleN is the head-sampling rate until overridden: 1 in 64
// ops is fully assembled.
const DefaultSampleN = 64

// Bounds on the assembler's memory: at most maxActiveSpans sampled
// spans in flight (excess spans degrade to ring-only tracing), at most
// maxSpanEvents buffered per span, and a maxRecentSpans overwrite ring
// of finished kept spans.
const (
	maxActiveSpans = 1024
	maxSpanEvents  = 512
	maxRecentSpans = 256
)

// SetSampleN configures head sampling: keep 1 in n ops (n == 1 keeps
// every op, n == 0 restores the default, n < 0 disables sampling).
func (o *Obs) SetSampleN(n int) {
	if o == nil {
		return
	}
	switch {
	case n == 0:
		o.sampleN.Store(DefaultSampleN)
	case n < 0:
		o.sampleN.Store(0)
	default:
		o.sampleN.Store(int64(n))
	}
}

// SampleN returns the configured rate (0 = disabled).
func (o *Obs) SampleN() int64 {
	if o == nil {
		return 0
	}
	return o.sampleN.Load()
}

// sampleNext makes the head-sampling decision for a new op. Zero-alloc;
// disabled always answers false.
func (o *Obs) sampleNext() bool {
	n := o.sampleN.Load()
	if n <= 0 {
		return false
	}
	if n > 1 && o.sampleSeq.Add(1)%uint64(n) != 0 {
		return false
	}
	o.spansSampled.Add(1)
	return true
}

// openSpan opens an active-span buffer for a sampled span. If the
// assembler is at capacity the span degrades to ring-only tracing.
func (o *Obs) openSpan(span uint64) {
	o.activeMu.Lock()
	if o.active == nil {
		o.active = make(map[uint64][]Event)
	}
	if len(o.active) < maxActiveSpans {
		if _, ok := o.active[span]; !ok {
			o.active[span] = []Event{}
		}
	}
	o.activeMu.Unlock()
}

// bufferEvent appends a sampled span's event to its active buffer (a
// span that is not open — finalized already, or degraded at capacity —
// keeps only its ring copy).
func (o *Obs) bufferEvent(ev Event) {
	o.activeMu.Lock()
	if evs, ok := o.active[ev.Span]; ok && len(evs) < maxSpanEvents {
		o.active[ev.Span] = append(evs, ev)
	}
	o.activeMu.Unlock()
}

// finalizeSpan closes a sampled span: its buffered events are assembled
// into an ordered cross-node timeline, wall time is attributed to named
// critical-path segments (recorded as critpath_<segment> histograms),
// and the result is kept in the recent-spans ring for `paconfs trace`,
// /debug/trace, and flight dumps. Finalizing a span that is not open is
// a no-op, so a span closed at its Terminal may be closed again by OpEnd.
func (o *Obs) finalizeSpan(span uint64) {
	o.activeMu.Lock()
	evs, ok := o.active[span]
	delete(o.active, span)
	o.activeMu.Unlock()
	if !ok || len(evs) == 0 {
		return
	}
	cp := AnalyzeSpan(evs)
	cp.Kept = KeptSampled
	for _, seg := range cp.Segments {
		o.Hist("critpath_" + seg.Name).RecordN(int64(seg.D))
	}
	o.keepRecent(cp)
}

// tailKeep records a compact entry for an anomalous unsampled span.
func (o *Obs) tailKeep(span uint64, op, path string, lag time.Duration) {
	o.tailKept.Add(1)
	o.keepRecent(CritPath{Span: span, Op: op, Path: path, Total: lag, Kept: KeptTail})
}

// keepRecent appends to the fixed-size kept-spans overwrite ring.
func (o *Obs) keepRecent(cp CritPath) {
	o.recentMu.Lock()
	if len(o.recent) < maxRecentSpans {
		o.recent = append(o.recent, cp)
	} else {
		o.recent[o.recentAt] = cp
	}
	o.recentAt++
	if o.recentAt >= maxRecentSpans {
		o.recentAt = 0
	}
	o.recentMu.Unlock()
}

// RecentSpans returns the kept spans (sampled + tail-kept), newest
// first, at most max (0 = all resident).
func (o *Obs) RecentSpans(max int) []CritPath {
	if o == nil {
		return nil
	}
	o.recentMu.Lock()
	n := len(o.recent)
	out := make([]CritPath, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recent write position.
		idx := (o.recentAt - 1 - i + n) % n
		out = append(out, o.recent[idx])
	}
	o.recentMu.Unlock()
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// SpanTrace assembles one span's timeline on demand: from the kept ring
// if it finished with segments attached, else from whatever events are
// still resident in the node rings (works for unsampled and mid-flight
// spans too).
func (o *Obs) SpanTrace(span uint64) (CritPath, bool) {
	if o == nil || span == 0 {
		return CritPath{}, false
	}
	o.recentMu.Lock()
	for i := range o.recent {
		if o.recent[i].Span == span && len(o.recent[i].Events) > 0 {
			cp := o.recent[i]
			o.recentMu.Unlock()
			return cp, true
		}
	}
	o.recentMu.Unlock()
	if evs := o.filterEvents(func(e Event) bool { return e.Span == span }); len(evs) > 0 {
		return AnalyzeSpan(evs), true
	}
	return CritPath{}, false
}

// TraceStats is the sampling/flight summary block bench embeds in every
// BENCH.json row.
type TraceStats struct {
	// SampleN is the head-sampling rate (1 in N; 0 = disabled).
	SampleN int64 `json:"sample_n"`
	// Sampled counts head-sampled spans; TailKept counts unsampled
	// spans kept at their terminal for being slow, failed, or parked.
	Sampled  int64 `json:"spans_sampled"`
	TailKept int64 `json:"spans_tail_kept"`
	// FlightDumps counts anomaly-triggered flight-recorder snapshots.
	FlightDumps int64 `json:"flight_dumps"`
}

// TraceStats reads the live sampling counters.
func (o *Obs) TraceStats() TraceStats {
	if o == nil {
		return TraceStats{}
	}
	return TraceStats{
		SampleN:     o.sampleN.Load(),
		Sampled:     o.spansSampled.Load(),
		TailKept:    o.tailKept.Load(),
		FlightDumps: o.flightSeq.Load(),
	}
}
