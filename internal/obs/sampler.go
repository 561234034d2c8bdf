package obs

import (
	"sort"
	"time"
)

// Tail-based span sampling, and the one place spans are stored. Every op
// gets a span ID; sampling decides which spans are *assembled*: their
// events accumulate in an active-span buffer — including the server-side
// events other nodes contribute over the wire — and at the op's terminal
// the buffer is stitched into an ordered cross-node timeline with
// critical-path attribution (critpath.go) and moved to the kept ring.
//
// The policy is tail-based: 1 in SampleN ops is sampled up front, and
// ops that turn out anomalous — dropped, ever parked, or slower than
// the slow-span threshold — are kept at their terminal even when the
// head decision said no, as a header-only record. The unsampled path
// stores no event, takes no tracing lock and allocates nothing: one
// atomic add at op start, one compare at op end. Every reader — slow
// log, span lookup, flight dump — reads the kept ring or the active
// buffers.

// DefaultSampleN is the head-sampling rate until overridden: 1 in 64
// ops is fully assembled.
const DefaultSampleN = 64

// Bounds on the assembler's memory: at most maxActiveSpans sampled
// spans in flight (a span the sampler picks past that is unsampled), at
// most maxSpanEvents buffered per span (past that the newest event
// overwrites the last slot, so the terminal always lands), and a
// maxRecentSpans overwrite ring of finished kept spans.
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
	return n == 1 || o.sampleSeq.Add(1)%uint64(n) == 0
}

// openSpan opens a head-sampled span's active buffer with its first
// event and reports whether it did: at capacity it does not, and the
// span is not counted as sampled.
func (o *Obs) openSpan(first Event) bool {
	o.activeMu.Lock()
	defer o.activeMu.Unlock()
	if o.active == nil {
		o.active = make(map[uint64][]Event)
	}
	if len(o.active) >= maxActiveSpans {
		return false
	}
	o.active[first.Span] = []Event{first}
	o.spansSampled.Add(1)
	return true
}

// bufferEvent appends a sampled span's event to its active buffer; a
// full buffer takes it in its last slot. A span that is not open
// (finalized already) records nothing.
func (o *Obs) bufferEvent(ev Event) {
	o.activeMu.Lock()
	if evs, ok := o.active[ev.Span]; ok {
		if len(evs) < maxSpanEvents {
			o.active[ev.Span] = append(evs, ev)
		} else {
			evs[len(evs)-1] = ev
		}
	}
	o.activeMu.Unlock()
}

// activeEvents returns the events of the sampled spans still being
// assembled, wall-ordered (a span's same-instant events keep their
// recording order) — what the kept ring cannot show yet.
func (o *Obs) activeEvents() []Event {
	o.activeMu.Lock()
	var out []Event
	for _, evs := range o.active {
		out = append(out, evs...)
	}
	o.activeMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall < out[j].Wall
		}
		return out[i].Span < out[j].Span
	})
	return out
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
	if !ok {
		return
	}
	cp := AnalyzeSpan(evs)
	cp.Kept = KeptSampled
	for _, seg := range cp.Segments {
		o.Hist("critpath_" + seg.Name).RecordN(int64(seg.D))
	}
	o.keepRecent(cp)
}

// tailKeep records a header-only entry for an anomalous unsampled span.
func (o *Obs) tailKeep(span uint64, op, path string, outcome Stage, lag time.Duration) {
	o.tailKept.Add(1)
	o.keepRecent(CritPath{Span: span, Op: op, Path: path, Total: lag, Outcome: outcome, Kept: KeptTail})
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

// SlowSpans returns the kept spans whose total meets the slow-op
// threshold, slowest first, at most max (0 = all). A head-sampled span
// carries its segments and timeline, a tail-kept one its header only.
func (o *Obs) SlowSpans(max int) []CritPath {
	if o == nil {
		return nil
	}
	threshold := o.SlowThreshold()
	var out []CritPath
	for _, cp := range o.RecentSpans(0) {
		if cp.Total >= threshold {
			out = append(out, cp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// SpanTrace returns one span's timeline: its kept record, or the
// assembly buffer so far of a sampled span still in flight.
func (o *Obs) SpanTrace(span uint64) (CritPath, bool) {
	if o == nil || span == 0 {
		return CritPath{}, false
	}
	o.recentMu.Lock()
	for _, cp := range o.recent {
		if cp.Span == span {
			o.recentMu.Unlock()
			return cp, true
		}
	}
	o.recentMu.Unlock()
	o.activeMu.Lock()
	evs := append([]Event(nil), o.active[span]...)
	o.activeMu.Unlock()
	if len(evs) == 0 {
		return CritPath{}, false
	}
	return AnalyzeSpan(evs), true
}

// TraceStats is the sampling/flight summary block: the shell's trace
// command and cmd/paconfs's /debug/trace handler print it.
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
