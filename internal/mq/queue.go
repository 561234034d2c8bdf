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
// a producer/consumer lock split would buy nothing. The messages live in
// fixed segments of segSize slots linked head to tail, so what a queue
// holds follows its depth, not its peak: a drained queue keeps only the
// segment it is on, rewound to its start. One emptied segment is kept
// beside the chain as a spare while messages are queued, and the rest go
// to the queue's pool, which collections empty. A consumer lagging a
// steady depth behind cycles between the chain and the spare, so steady
// state allocates nothing and never relies on the pool.
type Queue[T any] struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: signals a new message and close
	// The queued messages are head.items[lo:] through tail.items[:hi];
	// n counts them. Consumed slots are zeroed.
	head, tail *segment[T]
	lo, hi, n  int
	spare      *segment[T] // an emptied segment; nil while drained
	pool       sync.Pool   // emptied segments beyond the spare
	closed     bool
}

// segSize is the slots in one segment: a kept segment is all a drained
// queue holds, so it stays small.
const segSize = 32

type segment[T any] struct {
	items [segSize]queueItem[T]
	next  *segment[T]
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
	q.head = new(segment[T])
	q.tail = q.head
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
	if q.hi == segSize {
		q.tail.next = q.fresh()
		q.tail, q.hi = q.tail.next, 0
	}
	q.tail.items[q.hi] = it
	q.hi++
	q.n++
	q.cond.Signal()
	return nil
}

// fresh returns an empty segment: the spare, one from the pool, or a new
// one.
func (q *Queue[T]) fresh() *segment[T] {
	if s := q.spare; s != nil {
		q.spare = nil
		return s
	}
	if s, _ := q.pool.Get().(*segment[T]); s != nil {
		return s
	}
	return new(segment[T])
}

// Oldest returns, without consuming it, the oldest ordinary message
// queued (markers are skipped); ok=false means none. A message carrying
// its enqueue timestamp thereby bounds the head's wait without the queue
// reading a clock of its own.
func (q *Queue[T]) Oldest() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.lo
	for s := q.head; s != nil; s, i = s.next, 0 {
		end := segSize
		if s == q.tail {
			end = q.hi
		}
		for _, it := range s.items[i:end] {
			if !it.barrier {
				return it.v, true
			}
		}
	}
	return v, false
}

// take consumes the head message (mu held, queue non-empty), zeroing its
// slot so the queue does not pin the message's referents. An emptied head
// segment becomes the spare, or goes to the pool if a spare is held; the
// last message rewinds the segment it was in and sends the spare to the
// pool.
func (q *Queue[T]) take() queueItem[T] {
	it := q.head.items[q.lo]
	q.head.items[q.lo] = queueItem[T]{}
	q.lo++
	q.n--
	switch {
	case q.n == 0:
		q.lo, q.hi = 0, 0
		if q.spare != nil {
			q.pool.Put(q.spare)
			q.spare = nil
		}
	case q.lo == segSize:
		s := q.head
		q.head, q.lo, s.next = s.next, 0, nil
		if q.spare == nil {
			q.spare = s
		} else {
			q.pool.Put(s)
		}
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
	for q.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.n == 0 {
		return nil, false, 0, false
	}
	if q.head.items[q.lo].barrier {
		return nil, true, q.take().epoch, true
	}
	batch = append(buf[:0], q.take().v) // at least one, whatever max says
	for len(batch) < max && q.n > 0 && !q.head.items[q.lo].barrier {
		batch = append(batch, q.take().v)
	}
	return batch, false, 0, true
}

// TryPop takes the head message or marker (barrier=true, with its
// epoch) without blocking; ok=false means none is queued right now.
func (q *Queue[T]) TryPop() (v T, barrier bool, epoch uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return v, false, 0, false
	}
	it := q.take()
	return it.v, it.barrier, it.epoch, true
}

// Len returns the number of queued messages, barrier markers included.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Close wakes the subscriber; queued messages can still be drained.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
