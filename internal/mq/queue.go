// Package mq provides the commit-queue machinery of Pacon's commit
// module (paper §III.D.1, Fig 5): a per-node publish/subscribe FIFO
// (ZeroMQ in the paper's prototype) carrying metadata operations from
// clients to the node's commit process, plus the barrier-epoch protocol
// (§III.E.2, Fig 6) that orders dependent operations across every commit
// process of a consistent region.
package mq

import (
	"sync"
	"sync/atomic"

	"pacon/internal/fsapi"
)

// Queue is an unbounded FIFO of messages from a node's clients
// (publishers) to the node's commit process (subscriber). Barrier
// markers are interleaved in FIFO position with ordinary messages.
//
// One simplification versus the paper: Fig 6 has every client push its
// own barrier message and the commit process count them. Pushes into a
// node queue are serialized anyway, so a single marker per node carries
// the same information; the coordinator (Barrier) still counts one
// arrival per node, which is the paper's multi-node decision rule.
//
// The queue is split two-lock, Michael–Scott style: publishers append to
// the tail under pushMu while the subscriber drains the head under
// popMu, so a commit process chewing through a large batch never blocks
// the node's clients from publishing. The subscriber takes both locks
// (popMu then pushMu — the only lock order in this file) only for the
// brief tail→head swap when its head buffer runs dry, and the two
// buffers ping-pong so steady-state operation allocates nothing.
type Queue[T any] struct {
	// pushMu guards the publish side: tail, closed, the pushed counter
	// and the depth high-water mark. cond (on pushMu) signals new tail
	// items and close.
	pushMu  sync.Mutex
	cond    *sync.Cond
	tail    []queueItem[T]
	closed  bool
	pushed  int64
	maxSeen int

	// popMu guards the subscribe side: the head buffer and its consume
	// offset. The subscriber never holds popMu while blocked waiting for
	// items (see ensureHead), so Oldest/Len/Stats samplers stay live
	// while the commit process sleeps on an empty queue.
	popMu   sync.Mutex
	head    []queueItem[T]
	headOff int

	// size and popped are atomic so each side updates them under its own
	// lock only.
	size   atomic.Int64
	popped atomic.Int64
}

type queueItem[T any] struct {
	barrier bool
	epoch   uint64
	v       T
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.pushMu)
	return q
}

// Push publishes an operation message. Push on a closed queue returns
// ErrClosed.
func (q *Queue[T]) Push(v T) error {
	q.pushMu.Lock()
	if q.closed {
		q.pushMu.Unlock()
		return fsapi.ErrClosed
	}
	q.tail = append(q.tail, queueItem[T]{v: v})
	q.pushed++
	if n := int(q.size.Add(1)); n > q.maxSeen {
		q.maxSeen = n
	}
	q.cond.Signal()
	q.pushMu.Unlock()
	return nil
}

// PushBarrier publishes a barrier marker for epoch.
func (q *Queue[T]) PushBarrier(epoch uint64) error {
	q.pushMu.Lock()
	if q.closed {
		q.pushMu.Unlock()
		return fsapi.ErrClosed
	}
	q.tail = append(q.tail, queueItem[T]{barrier: true, epoch: epoch})
	q.pushed++
	q.size.Add(1)
	q.cond.Signal()
	q.pushMu.Unlock()
	return nil
}

// Oldest returns, without consuming it, the oldest ordinary message
// still queued — the one the subscriber will dequeue next (barrier
// markers carry no payload and are skipped). ok=false means none is
// queued. A message that carries its own enqueue timestamp thereby
// bounds how long the queue's head has been waiting, without the queue
// reading a clock of its own.
func (q *Queue[T]) Oldest() (v T, ok bool) {
	q.popMu.Lock()
	defer q.popMu.Unlock()
	for _, it := range q.head[q.headOff:] {
		if !it.barrier {
			return it.v, true
		}
	}
	q.pushMu.Lock()
	defer q.pushMu.Unlock()
	for _, it := range q.tail {
		if !it.barrier {
			return it.v, true
		}
	}
	return v, false
}

// refillLocked swaps the published tail into the (drained) head buffer.
// Caller holds popMu; returns whether the head now has items. The old
// head buffer becomes the next tail, so the two buffers ping-pong and
// steady state allocates nothing.
func (q *Queue[T]) refillLocked() bool {
	q.pushMu.Lock()
	if len(q.tail) == 0 {
		q.pushMu.Unlock()
		return false
	}
	spare := q.head[:0]
	q.head = q.tail
	q.tail = spare
	q.headOff = 0
	q.pushMu.Unlock()
	return true
}

// ensureHead makes head[headOff:] non-empty, blocking until a message
// arrives or the queue is closed and fully drained (returns false).
// Caller holds popMu on entry and exit; while blocked, only pushMu is
// held (and released inside cond.Wait), never popMu.
func (q *Queue[T]) ensureHead() bool {
	for {
		if q.headOff < len(q.head) || q.refillLocked() {
			return true
		}
		q.popMu.Unlock()
		q.pushMu.Lock()
		for len(q.tail) == 0 && !q.closed {
			q.cond.Wait()
		}
		drained := q.closed && len(q.tail) == 0
		q.pushMu.Unlock()
		q.popMu.Lock()
		if drained {
			// Re-check under popMu: a concurrent consumer may have
			// refilled the head between our unlock and the close.
			if q.headOff < len(q.head) || q.refillLocked() {
				return true
			}
			return false
		}
	}
}

// takeHeadLocked consumes the head item. Caller holds popMu and has
// ensured the head is non-empty; the vacated slot is zeroed so the queue
// does not pin the message's referents until the next buffer swap.
func (q *Queue[T]) takeHeadLocked() queueItem[T] {
	it := q.head[q.headOff]
	q.head[q.headOff] = queueItem[T]{}
	q.headOff++
	q.size.Add(-1)
	q.popped.Add(1)
	return it
}

// Pop blocks for the next message. ok=false means the queue was closed
// and fully drained. barrier=true marks a barrier message whose epoch is
// returned; v is the zero value then.
func (q *Queue[T]) Pop() (v T, barrier bool, epoch uint64, ok bool) {
	q.popMu.Lock()
	defer q.popMu.Unlock()
	if !q.ensureHead() {
		return v, false, 0, false
	}
	it := q.takeHeadLocked()
	return it.v, it.barrier, it.epoch, true
}

// PopBatch blocks like Pop, then drains up to max consecutive ordinary
// messages in one critical section. A barrier at the head is returned
// alone (batch is nil, barrier=true); otherwise the batch stops before
// the first barrier so every returned message belongs to the same
// barrier epoch — the window inside which the commit process may
// coalesce same-path operations. ok=false means closed and drained.
func (q *Queue[T]) PopBatch(max int) (batch []T, barrier bool, epoch uint64, ok bool) {
	return q.PopBatchInto(nil, max)
}

// PopBatchInto is PopBatch writing into buf's backing array (buf may be
// nil). The subscriber owns the returned batch only until its next
// PopBatchInto call with the same buffer — the commit loop's dequeue
// path, which copies ops onward before re-entering, so the batch buffer
// is allocated once for the loop's lifetime.
func (q *Queue[T]) PopBatchInto(buf []T, max int) (batch []T, barrier bool, epoch uint64, ok bool) {
	if max < 1 {
		max = 1
	}
	q.popMu.Lock()
	defer q.popMu.Unlock()
	if !q.ensureHead() {
		return nil, false, 0, false
	}
	if q.head[q.headOff].barrier {
		it := q.takeHeadLocked()
		return nil, true, it.epoch, true
	}
	batch = buf[:0]
	n := 0
	for n < max {
		if q.headOff >= len(q.head) && !q.refillLocked() {
			break
		}
		if q.head[q.headOff].barrier {
			break
		}
		batch = append(batch, q.head[q.headOff].v)
		q.head[q.headOff] = queueItem[T]{}
		q.headOff++
		n++
	}
	q.size.Add(-int64(n))
	q.popped.Add(int64(n))
	return batch, false, 0, true
}

// TryPop is Pop without blocking; ok=false means empty right now (or
// closed and drained).
func (q *Queue[T]) TryPop() (v T, barrier bool, epoch uint64, ok bool) {
	q.popMu.Lock()
	defer q.popMu.Unlock()
	if q.headOff >= len(q.head) && !q.refillLocked() {
		return v, false, 0, false
	}
	it := q.takeHeadLocked()
	return it.v, it.barrier, it.epoch, true
}

// Len returns the number of queued messages (including barriers).
func (q *Queue[T]) Len() int {
	if n := int(q.size.Load()); n > 0 {
		return n
	}
	return 0
}

// Close wakes the subscriber; queued messages can still be drained.
func (q *Queue[T]) Close() {
	q.pushMu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.pushMu.Unlock()
}

// QueueStats reports queue pressure for the bench harness. Pushed and
// Popped count every message, barrier markers included, so
// Popped <= Pushed holds in any snapshot.
type QueueStats struct {
	Pushed, Popped int64
	MaxDepth       int
}

// Stats returns counters. popped is read first: both counters only grow
// and a message is pushed before it is popped, so the later pushed read
// can never fall below it.
func (q *Queue[T]) Stats() QueueStats {
	popped := q.popped.Load()
	q.pushMu.Lock()
	pushed, maxSeen := q.pushed, q.maxSeen
	q.pushMu.Unlock()
	return QueueStats{Pushed: pushed, Popped: popped, MaxDepth: maxSeen}
}
