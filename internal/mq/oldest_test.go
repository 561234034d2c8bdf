package mq

import "testing"

// TestOldestTracksHead: Oldest follows the oldest ordinary message still
// queued — without consuming it, skipping barrier markers, as the head
// advances past pushes made behind it, and reporting none after a drain. The region's
// queue_head_age_ns gauge is that message's own enqueue timestamp.
func TestOldestTracksHead(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.Oldest(); ok {
		t.Fatal("Oldest reported a message on an empty queue")
	}

	q.Push(1)
	q.PushBarrier(7)
	q.Push(2)
	for i := 0; i < 2; i++ { // peeking must not consume
		if v, ok := q.Oldest(); !ok || v != 1 {
			t.Fatalf("Oldest = (%d, %v), want (1, true)", v, ok)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after peeks, want 3", q.Len())
	}

	pop(q) // op 1: the barrier is now at the head, op 2 behind it
	if v, ok := q.Oldest(); !ok || v != 2 {
		t.Fatalf("Oldest behind a barrier = (%d, %v), want (2, true)", v, ok)
	}
	q.Push(3) // lands behind 2 while 2 is still queued
	if v, ok := q.Oldest(); !ok || v != 2 {
		t.Fatalf("Oldest with a fresh tail = (%d, %v), want (2, true)", v, ok)
	}

	pop(q) // barrier
	pop(q) // op 2
	if v, ok := q.Oldest(); !ok || v != 3 {
		t.Fatalf("Oldest after 2 is consumed = (%d, %v), want (3, true)", v, ok)
	}
	pop(q) // op 3
	if _, ok := q.Oldest(); ok {
		t.Fatal("Oldest still reporting after drain")
	}

	q.PushBarrier(8)
	if _, ok := q.Oldest(); ok {
		t.Fatal("a lone barrier marker is not a message")
	}
}
