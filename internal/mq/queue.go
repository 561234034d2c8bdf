// Package mq is the commit-queue machinery of Pacon's commit module: the
// per-node publish/subscribe FIFO from clients to the node's commit
// process (paper §III.D.1, Fig 5; ZeroMQ in the paper's prototype) and
// the barrier-epoch protocol (§III.E.2, Fig 6) that orders dependent
// operations across every commit process of a consistent region.
package mq

import (
	"sync"

	"pacon/internal/fsapi"
)

// Queue is an unbounded FIFO of messages from a node's clients
// (publishers) to the node's commit process (subscriber), with barrier
// markers interleaved in FIFO position. Fig 6 has every client push its
// own barrier message; pushes into a node queue are serialized anyway, so
// one marker per node carries the same information, and the coordinator
// (Barrier) still counts one arrival per node.
//
// One mutex guards it: a node's publishers already push under its
// in-flight table lock and a pop holds it only to copy out one batch, so
// a producer/consumer lock split would buy nothing. A push into a full
// slice first moves the unconsumed messages to the front if at least half
// of it is consumed: amortized O(1) behind a lagging subscriber, and
// steady state allocates nothing.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu: signals a new message and close
	items  []queueItem[T]
	head   int // items[:head] are consumed (and zeroed)
	closed bool
}

type queueItem[T any] struct {
	barrier bool
	epoch   uint64
	v       T
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond.L = &q.mu
	return q
}

// Push publishes an operation message. Push on a closed queue returns
// ErrClosed.
func (q *Queue[T]) Push(v T) error { return q.push(queueItem[T]{v: v}) }

// PushBarrier publishes a barrier marker for epoch.
func (q *Queue[T]) PushBarrier(epoch uint64) error {
	return q.push(queueItem[T]{barrier: true, epoch: epoch})
}

func (q *Queue[T]) push(it queueItem[T]) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fsapi.ErrClosed
	}
	if n := len(q.items); n == cap(q.items) && q.head >= n/2 {
		m := copy(q.items, q.items[q.head:])
		clear(q.items[m:])
		q.items, q.head = q.items[:m], 0
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	return nil
}

// Oldest returns, without consuming it, the oldest ordinary message
// queued (markers are skipped); ok=false means none. A message carrying
// its enqueue timestamp thereby bounds the head's wait without the queue
// reading a clock of its own.
func (q *Queue[T]) Oldest() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.items[q.head:] {
		if !it.barrier {
			return it.v, true
		}
	}
	return v, false
}

// take consumes the head message (mu held, queue non-empty), zeroing its
// slot so the queue does not pin the message's referents.
func (q *Queue[T]) take() queueItem[T] {
	it := q.items[q.head]
	q.items[q.head] = queueItem[T]{}
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return it
}

// PopBatchInto blocks for the next message and returns up to max
// consecutive ordinary ones in buf's backing array (buf may be nil),
// the caller's until its next call with buf. A barrier at the head comes
// back alone (barrier=true, with its epoch); otherwise the batch stops
// before the first barrier, so it lies in one barrier epoch — the window
// in which the commit process may coalesce same-path operations.
// ok=false means closed and drained.
func (q *Queue[T]) PopBatchInto(buf []T, max int) (batch []T, barrier bool, epoch uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return nil, false, 0, false
	}
	if q.items[q.head].barrier {
		return nil, true, q.take().epoch, true
	}
	batch = append(buf[:0], q.take().v) // at least one, whatever max says
	for len(batch) < max && q.head < len(q.items) && !q.items[q.head].barrier {
		batch = append(batch, q.take().v)
	}
	return batch, false, 0, true
}

// TryPop takes the head message or marker (barrier=true, with its
// epoch) without blocking; ok=false means none is queued right now.
func (q *Queue[T]) TryPop() (v T, barrier bool, epoch uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return v, false, 0, false
	}
	it := q.take()
	return it.v, it.barrier, it.epoch, true
}

// Len returns the number of queued messages, barrier markers included.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Close wakes the subscriber; queued messages can still be drained.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
