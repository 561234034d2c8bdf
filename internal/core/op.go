package core

import (
	"fmt"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// OpKind classifies a commit-queue operation. Create, mkdir and remove
// are the paper's non-dependent type (independent commit); rmdir and
// readdir never enter the queue — they run synchronously under a barrier
// (Table I).
type OpKind uint8

// Commit-queue operation kinds.
const (
	OpCreate OpKind = iota
	OpMkdir
	OpRemove
	// OpSetStat writes back an updated stat (including inline small-file
	// data) to the DFS backup copy.
	OpSetStat
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpRemove:
		return "rm"
	case OpSetStat:
		return "setstat"
	default:
		return fmt.Sprintf("opkind(%d)", uint8(k))
	}
}

// Op is one operation message in the commit queue (paper §III.D.1: "the
// operation message includes the target path, operation information, and
// timestamp").
type Op struct {
	Kind OpKind
	Path string
	Stat fsapi.Stat
	// Time is the virtual time the client enqueued the op; the commit
	// process never applies it earlier.
	Time vclock.Time
	// Seq orders ops on the same path: the cache value remembers the
	// newest seq so commit processes only clear the dirty flag for the
	// op that made it dirty last.
	Seq uint64
	// Node names the node whose queue the op entered: the label traces and
	// benchmarks read.
	Node string
	// AfterRm marks a create/mkdir that replaced a removed marker in the
	// cache (create-after-rm): the remove is still queued, which is what
	// tells commitOutcome's ErrExist rows a doomed old incarnation from a
	// path re-created after its entry was evicted.
	AfterRm bool
	// NetAbsent marks a remove produced by the coalescer folding a
	// create+remove pair whose create never reached the DFS. The net
	// effect to commit is absence: ErrNotExist is success, an existing
	// object a stale incarnation the original remove would have deleted
	// anyway. Carried to the DFS as fsapi.BatchOp.IfExists.
	NetAbsent bool
	// Sampled marks a span the obs tail sampler is assembling: its
	// stage events also feed the active-span buffer, the commit side
	// tags its RPCs with the span's trace context, and the terminal
	// finalizes the cross-node timeline. Unsampled ops skip all of that
	// (they can still be tail-kept at the terminal if they turn out
	// slow, failed, or parked).
	Sampled bool
	// Parked records that the op was ever parked in the pending set —
	// the tail sampler always keeps such spans, and an op the commit
	// process takes up with the flag set is a resubmission.
	Parked bool
	// attempts counts the failed resubmissions charged to the op's retry
	// budget (drainPending says which are); at CommitRetryLimit the op is
	// dropped. It shares the flags' word and costs the message nothing.
	attempts int32
	// node is the node the op was queued on (nil only for an op no client
	// queued: tests apply hand-built ones). The op holds one reference in
	// its in-flight table until the terminal gives it back, on whatever
	// goroutine, and every commit-side hook records through its telemetry
	// handle. The op is an in-process queue message, never wire encoded,
	// so this and the span fields around it ride along for free (the two
	// flags above sit with the other bools so it does not grow the message).
	node *node
	// Span is the observability trace ID allocated at the client call
	// (0 = untraced).
	Span uint64
	// EnqWall is the wall-clock time (unix nanoseconds) the op entered its
	// node's in-flight table, just before the client's store — the one
	// timestamp behind the staleness watermarks, queue residency, commit
	// lag and queue_head_age_ns. Wall, not virtual: the span crosses
	// goroutines whose virtual clocks advance independently. 0 when
	// observability is disabled.
	EnqWall int64
}
