package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Critical-path attribution: a sampled span's cross-node events, sorted
// into one wall-clock timeline, with every inter-event gap charged to a
// named segment chosen by the stage the gap *arrives at*. Because every
// gap is charged to exactly one segment, the segment durations sum to
// the span's first-to-last total by construction.

// Critical-path segment names. These also name the critpath_<segment>
// histograms a finalized sampled span records.
const (
	// SegClientSync is client-synchronous work: op entry up to the
	// enqueue (permission checks, local cache bookkeeping).
	SegClientSync = "client_sync"
	// SegCacheRPC / SegDFSRPC is time crossing the wire to (and inside)
	// a metadata-cache server or the DFS, attributed from the
	// server-side recv/done events the trace context produces.
	SegCacheRPC = "cache_rpc"
	SegDFSRPC   = "dfs_rpc"
	// SegQueueWait is commit-queue residency (enqueue → dequeue).
	SegQueueWait = "queue_wait"
	// SegCoalesce is merge work at dequeue time.
	SegCoalesce = "coalesce"
	// SegBarrierWait is a synchronous op's barrier wait.
	SegBarrierWait = "barrier_wait"
	// SegDFSApply is commit-side work finishing the durable apply
	// (after any attributed DFS server time).
	SegDFSApply = "dfs_apply"
	// SegRetryPark is the failure-path detour: park, unpark, retry.
	SegRetryPark = "retry_park"
	// SegDrop is the walk to a terminal drop or discard.
	SegDrop = "drop"
)

// Kept-span provenance.
const (
	KeptSampled = "sampled" // head-sampled, fully assembled
	KeptTail    = "tail"    // kept at terminal: slow, failed, or parked
)

// Segment is one attributed slice of a span's wall time.
type Segment struct {
	Name string        `json:"name"`
	D    time.Duration `json:"ns"`
}

// CritPath is one kept span: its ordered cross-node timeline and the
// per-segment attribution of its total wall time.
type CritPath struct {
	Span    uint64        `json:"span"`
	Op      string        `json:"op,omitempty"`
	Path    string        `json:"path,omitempty"`
	Total   time.Duration `json:"total_ns"`
	Outcome Stage         `json:"outcome"`
	Kept    string        `json:"kept,omitempty"`
	// Segments sum to Total (sampled spans only; tail-kept compact
	// records carry just the header fields).
	Segments []Segment `json:"segments,omitempty"`
	Events   []Event   `json:"events,omitempty"`
}

// segmentFor charges the gap ending at ev.
func segmentFor(ev Event) string {
	switch ev.Stage {
	case StageClientStart, StageEnqueue:
		return SegClientSync
	case StageDequeue:
		return SegQueueWait
	case StageCoalesce:
		return SegCoalesce
	case StageBarrier:
		return SegBarrierWait
	case StageApply:
		return SegDFSApply
	case StagePark, StageUnpark, StageRetry:
		return SegRetryPark
	case StageDrop, StageDiscard:
		return SegDrop
	case StageServerRecv, StageServerDone:
		// Server events carry the service address as their node;
		// metadata-cache servers register under "<node>/pacon-<region>".
		if strings.Contains(ev.Node, "/pacon-") {
			return SegCacheRPC
		}
		return SegDFSRPC
	default:
		return SegClientSync
	}
}

// AnalyzeSpan stitches one span's events (any order, any mix of nodes)
// into a wall-ordered timeline and attributes the wall time between
// consecutive events to named segments.
func AnalyzeSpan(evs []Event) CritPath {
	if len(evs) == 0 {
		return CritPath{}
	}
	ordered := append([]Event(nil), evs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Wall != ordered[j].Wall {
			return ordered[i].Wall < ordered[j].Wall
		}
		return ordered[i].Stage < ordered[j].Stage
	})
	cp := CritPath{
		Span:    ordered[0].Span,
		Total:   time.Duration(ordered[len(ordered)-1].Wall - ordered[0].Wall),
		Outcome: ordered[len(ordered)-1].Stage,
		Events:  ordered,
	}
	// Name the span after its client-side origin, not a server method.
	for _, ev := range ordered {
		if ev.Stage == StageClientStart || ev.Stage == StageEnqueue {
			cp.Op, cp.Path = ev.Op, ev.Path
			break
		}
	}
	if cp.Op == "" {
		cp.Op, cp.Path = ordered[0].Op, ordered[0].Path
	}
	idx := make(map[string]int, 8)
	for i := 1; i < len(ordered); i++ {
		name := segmentFor(ordered[i])
		d := time.Duration(ordered[i].Wall - ordered[i-1].Wall)
		j, ok := idx[name]
		if !ok {
			idx[name] = len(cp.Segments)
			cp.Segments = append(cp.Segments, Segment{Name: name, D: d})
			continue
		}
		cp.Segments[j].D += d
	}
	return cp
}

// Line renders one kept span's header and its segments on one line —
// the slow-op log's entry.
func (c CritPath) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span=%d %s %s total=%v kept=%s outcome=%s",
		c.Span, c.Op, c.Path, c.Total, c.Kept, c.Outcome)
	if len(c.Segments) > 0 {
		b.WriteString(" [")
		for i, s := range c.Segments {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%v", s.Name, s.D)
		}
		b.WriteString("]")
	}
	return b.String()
}

// String renders Line followed by the span's ordered cross-node timeline,
// for `paconfs trace SPAN`.
func (c CritPath) String() string {
	var b strings.Builder
	b.WriteString(c.Line())
	for _, ev := range c.Events {
		fmt.Fprintf(&b, "\n  +%-12v %-8s node=%s %s %s",
			time.Duration(ev.Wall-c.Events[0].Wall), ev.Stage, ev.Node, ev.Op, ev.Path)
		if ev.Note != "" {
			b.WriteString(" (" + ev.Note + ")")
		}
	}
	return b.String()
}
