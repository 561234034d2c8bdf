package obs

import "fmt"

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
	// the first event of a sampled span, recorded under the client node.
	StageClientStart
	// StageBarrier marks a synchronous op returning from its barrier
	// wait (readdir/rmdir/rename).
	StageBarrier
	// StageServerRecv / StageServerDone bracket a service handling an
	// RPC that carried this span's trace context across the wire. They
	// are recorded under the *service address* (e.g. "node1/pacon-app1",
	// "storage0/mds0"), so a span's event list shows its cross-node hops.
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
	Node  string `json:"node"` // the recording node or service address
	Op    string `json:"op,omitempty"`
	Path  string `json:"path,omitempty"`
	Wall  int64  `json:"wall_ns"`
	Note  string `json:"note,omitempty"`
}
