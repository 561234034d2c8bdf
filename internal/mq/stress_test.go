package mq

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// trackedOp mirrors the shape the region pushes: a path plus a unique
// id, so the consumer can assert exactly-once delivery per message.
type trackedOp struct {
	path string
	id   int
}

// refTracker mirrors the discipline of a region node's in-flight table:
// add on push, remove exactly once on dequeue. A count going negative
// means a message was delivered twice; a nonzero count at the end means
// one was lost. (The real table lives in core, one per node; the
// discipline it depends on — every push popped exactly once — is the
// queue's contract under test here.)
type refTracker struct {
	mu     sync.Mutex
	counts map[string]int
}

func (t *refTracker) add(p string) {
	t.mu.Lock()
	t.counts[p]++
	t.mu.Unlock()
}

func (t *refTracker) remove(p string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[p]--
	if t.counts[p] < 0 {
		return fmt.Errorf("path %q released more times than pushed", p)
	}
	if t.counts[p] == 0 {
		delete(t.counts, p)
	}
	return nil
}

// TestQueueStressExactlyOnce interleaves many publishers (ordinary
// messages and barriers) with a batch-draining subscriber and
// concurrent Oldest/Len samplers — every method the commit pipeline
// calls, at once. It asserts the in-flight discipline (every push
// released exactly once, never twice), that no message is lost or
// reordered within a publisher's stream, and that the sampled Oldest
// never moves backward within a publisher's stream (heads are consumed
// in push order, so the oldest queued message of one publisher only
// ever gets newer).
func TestQueueStressExactlyOnce(t *testing.T) {
	const (
		publishers = 8
		perPub     = 2000
		batchMax   = 64
	)
	q := NewQueue[trackedOp]()
	tracker := &refTracker{counts: make(map[string]int)}

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				path := fmt.Sprintf("/w/p%d/f%d", p, i%17)
				tracker.add(path)
				if err := q.Push(trackedOp{path: path, id: p*perPub + i}); err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if i%100 == 99 {
					if err := q.PushBarrier(uint64(p*perPub + i)); err != nil {
						t.Errorf("push barrier: %v", err)
						return
					}
				}
			}
		}(p)
	}

	// Samplers: Oldest monotonicity plus Len liveness while the
	// subscriber drains. Neither may block behind a subscriber sleeping on
	// an empty queue.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		lastOldest := make([]int, publishers)
		for {
			select {
			case <-samplerStop:
				return
			default:
			}
			if op, ok := q.Oldest(); ok {
				pub := op.id / perPub
				if op.id < lastOldest[pub] {
					t.Errorf("Oldest went backward: %d -> %d", lastOldest[pub], op.id)
					return
				}
				lastOldest[pub] = op.id
			}
			if n := q.Len(); n < 0 || n > publishers*(perPub+perPub/100) {
				t.Errorf("Len = %d, out of range", n)
				return
			}
			runtime.Gosched()
		}
	}()

	// Subscriber: drain batches, releasing the tracker exactly once per
	// message and checking per-publisher FIFO order.
	var (
		seen     = make(map[int]bool, publishers*perPub)
		lastID   = make([]int, publishers)
		got      int
		barriers int
		buf      []trackedOp
	)
	for p := range lastID {
		lastID[p] = -1
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			batch, barrier, _, ok := q.PopBatchInto(buf, batchMax)
			if !ok {
				return
			}
			if barrier {
				barriers++
				continue
			}
			if batch != nil {
				buf = batch
			}
			for _, op := range batch {
				if seen[op.id] {
					t.Errorf("message %d delivered twice", op.id)
					return
				}
				seen[op.id] = true
				p := op.id / perPub
				if op.id%perPub <= lastID[p] {
					t.Errorf("publisher %d reordered: %d after %d", p, op.id%perPub, lastID[p])
					return
				}
				lastID[p] = op.id % perPub
				if err := tracker.remove(op.path); err != nil {
					t.Error(err)
					return
				}
				got++
			}
		}
	}()

	pubWG.Wait()
	q.Close()
	<-done
	close(samplerStop)
	samplerWG.Wait()

	if got != publishers*perPub {
		t.Fatalf("delivered %d messages, want %d", got, publishers*perPub)
	}
	if wantBarriers := publishers * (perPub / 100); barriers != wantBarriers {
		t.Fatalf("delivered %d barriers, want %d", barriers, wantBarriers)
	}
	tracker.mu.Lock()
	defer tracker.mu.Unlock()
	if len(tracker.counts) != 0 {
		t.Fatalf("%d paths never released: %v", len(tracker.counts), tracker.counts)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the drain", q.Len())
	}
}

// TestQueuePushAndOldestDuringDrain: while a subscriber drains the
// queue one message at a time, a publisher's pushes and Oldest samples
// keep completing, and every message pushed is drained exactly once.
func TestQueuePushAndOldestDuringDrain(t *testing.T) {
	q := NewQueue[int]()
	if err := q.Push(1); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := q.Push(i); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			if i%64 == 0 {
				q.Oldest() // may find the queue just drained: only liveness counts
			}
		}
	}()
	drained := 0
	for drained < n+1 {
		if _, _, _, ok := q.TryPop(); ok {
			drained++
		} else {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after full drain", q.Len())
	}
}
