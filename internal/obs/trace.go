package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stage is one point in an operation's commit-pipeline lifecycle.
type Stage uint8

// Span lifecycle stages, in the order a healthy op visits them. Park,
// unpark, retry, drop and discard are the failure-path detours; coalesce
// marks an op merged away at dequeue time (its effect rides another
// span's apply).
const (
	StageEnqueue Stage = iota
	StageDequeue
	StageCoalesce
	StagePark
	StageUnpark
	StageApply
	StageRetry
	StageDrop
	StageDiscard
	// StageClientStart marks the client entering a traced operation —
	// the first event of a sampled span, recorded into the client
	// node's ring.
	StageClientStart
	// StageBarrier marks a synchronous op returning from its barrier
	// wait (readdir/rmdir/rename).
	StageBarrier
	// StageServerRecv / StageServerDone bracket a service handling an
	// RPC that carried this span's trace context across the wire. They
	// are recorded into the *service address's* ring (e.g.
	// "node1/pacon-app1", "storage0/mds"), so a span's event list shows
	// its cross-node hops.
	StageServerRecv
	StageServerDone
)

var stageNames = [...]string{
	StageEnqueue:     "enqueue",
	StageDequeue:     "dequeue",
	StageCoalesce:    "coalesce",
	StagePark:        "park",
	StageUnpark:      "unpark",
	StageApply:       "apply",
	StageRetry:       "retry",
	StageDrop:        "drop",
	StageDiscard:     "discard",
	StageClientStart: "start",
	StageBarrier:     "barrier",
	StageServerRecv:  "srv_recv",
	StageServerDone:  "srv_done",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// MarshalText renders the stage name into flight-recorder JSON dumps.
func (s Stage) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText restores a stage from its name (dump post-processing).
func (s *Stage) UnmarshalText(b []byte) error {
	name := string(b)
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown stage %q", name)
}

// Event is one timestamped span event. Wall is wall-clock unix
// nanoseconds — spans cross goroutines (client → commit process), and
// wall time is the only clock shared monotonically between them.
type Event struct {
	Span  uint64 `json:"span"`
	Stage Stage  `json:"stage"`
	Node  string `json:"node"` // filled by the recording node
	Op    string `json:"op,omitempty"`
	Path  string `json:"path,omitempty"`
	Wall  int64  `json:"wall_ns"`
	Note  string `json:"note,omitempty"`
}

// String renders one dump line.
func (e Event) String() string {
	s := fmt.Sprintf("span=%d %-8s node=%s %s %s", e.Span, e.Stage, e.Node, e.Op, e.Path)
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// Events merges every node's resident events, ordered by wall time (span
// then stage break ties, so one span's same-instant events keep their
// pipeline order). This is the dump API: callers filter by span, path,
// stage, or time window.
func (o *Obs) Events() []Event {
	return o.filterEvents(func(Event) bool { return true })
}

// filterEvents returns the resident events keep admits, in wall-time
// order.
func (o *Obs) filterEvents(keep func(Event) bool) []Event {
	if o == nil {
		return nil
	}
	var out []Event
	for _, n := range o.nodeList() {
		for _, ev := range n.events() {
			if keep(ev) {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall < out[j].Wall
		}
		if out[i].Span != out[j].Span {
			return out[i].Span < out[j].Span
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		// Node as the final tie-break keeps identical-timestamp events
		// from different nodes in one order across dumps (golden diffs).
		return out[i].Node < out[j].Node
	})
	return out
}

// SpanStep is one hop of a span's per-stage breakdown: the stage arrived
// at and the time spent getting there from the previous event.
type SpanStep struct {
	Stage Stage
	D     time.Duration
}

// SpanSummary digests one span for the slow-op log.
type SpanSummary struct {
	Span    uint64
	Op      string
	Path    string
	Total   time.Duration
	Steps   []SpanStep
	Outcome Stage // last recorded stage
}

// String renders one slow-op line with its per-stage breakdown.
func (s SpanSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span=%d %s %s total=%v [", s.Span, s.Op, s.Path, s.Total)
	for i, st := range s.Steps {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s+%v", st.Stage, st.D)
	}
	b.WriteString("]")
	return b.String()
}

// SlowSpans groups resident events by span and returns the spans whose
// first-to-last wall span meets the configured threshold, slowest first,
// at most max (0 = unlimited). Spans still mid-flight are reported as-is
// — a span parked for seconds is exactly what the slow-op log exists to
// show.
func (o *Obs) SlowSpans(max int) []SpanSummary {
	if o == nil {
		return nil
	}
	threshold := o.SlowThreshold()
	evs := o.Events()
	byspan := make(map[uint64][]Event)
	for _, ev := range evs {
		if ev.Span != 0 {
			byspan[ev.Span] = append(byspan[ev.Span], ev)
		}
	}
	var out []SpanSummary
	for span, sevs := range byspan {
		total := time.Duration(sevs[len(sevs)-1].Wall - sevs[0].Wall)
		if total < threshold {
			continue
		}
		sum := SpanSummary{
			Span:    span,
			Op:      sevs[0].Op,
			Path:    sevs[0].Path,
			Total:   total,
			Outcome: sevs[len(sevs)-1].Stage,
		}
		if sum.Path == "" && len(sevs) > 1 {
			sum.Path = sevs[1].Path
		}
		for i, ev := range sevs {
			var d time.Duration
			if i > 0 {
				d = time.Duration(ev.Wall - sevs[i-1].Wall)
			}
			sum.Steps = append(sum.Steps, SpanStep{Stage: ev.Stage, D: d})
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Span < out[j].Span
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
