package mq

import (
	"errors"
	"math/rand"
	"testing"

	"pacon/internal/fsapi"
)

// TestQueueMatchesModel drives the queue with seeded random sequences of
// every method the commit pipeline calls and checks each answer against a
// plain slice. A run drifts toward a target depth of up to five
// segments, so a lagging consumer keeps the head crossing segment edges
// behind the tail, and a marker is likeliest where it lands on the first
// or last slot of a segment. Each run ends with Close: pushes are
// refused, everything queued drains in order, then ok=false.
func TestQueueMatchesModel(t *testing.T) {
	const seeds, steps = 200, 1000
	edgeMarkers := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue[int]()
		var model []queueItem[int]
		var buf []int
		next, epoch := 0, uint64(0)
		target := rng.Intn(5*segSize + 1) // depth the run drifts toward

		// popBatch pops with a random max and checks the answer against
		// the model's head, which it then consumes.
		popBatch := func(step int) bool {
			max := 1 + rng.Intn(9)
			batch, barrier, e, ok := q.PopBatchInto(buf, max)
			if len(model) == 0 {
				if ok {
					t.Fatalf("seed %d step %d: closed, drained queue answered ok (batch %v, barrier %v)", seed, step, batch, barrier)
				}
				return false
			}
			if !ok {
				t.Fatalf("seed %d step %d: ok=false with %d queued", seed, step, len(model))
			}
			if model[0].barrier {
				if !barrier || e != model[0].epoch || len(batch) != 0 {
					t.Fatalf("seed %d step %d: want marker %d alone, got (%v, barrier %v, epoch %d)", seed, step, model[0].epoch, batch, barrier, e)
				}
				model = model[1:]
				return true
			}
			if barrier {
				t.Fatalf("seed %d step %d: marker %d ahead of message %d", seed, step, e, model[0].v)
			}
			n := 0
			for n < max && n < len(model) && !model[n].barrier {
				n++
			}
			if len(batch) != n {
				t.Fatalf("seed %d step %d: PopBatchInto(max %d) returned %d messages, want %d (a batch stops at max and before a marker)", seed, step, max, len(batch), n)
			}
			for i, v := range batch {
				if v != model[i].v {
					t.Fatalf("seed %d step %d: batch %v out of order at %d, want %d", seed, step, batch, i, model[i].v)
				}
			}
			model, buf = model[n:], batch
			return true
		}

		for step := 0; step < steps; step++ {
			// Below the target depth pushes outrun pops; at or above it
			// pops outrun pushes.
			push, pop := 85, 95
			if len(model) >= target {
				push, pop = 25, 75
			}
			// A push now lands on a segment's first slot (hi 0 or a full
			// tail) or its last.
			atEdge := q.hi == 0 || q.hi >= segSize-1
			marker := 5
			if atEdge {
				marker = 40
			}
			switch r := rng.Intn(100); {
			case r < marker:
				if atEdge {
					edgeMarkers++
				}
				epoch++
				if err := q.PushBarrier(epoch); err != nil {
					t.Fatalf("seed %d step %d: PushBarrier: %v", seed, step, err)
				}
				model = append(model, queueItem[int]{barrier: true, epoch: epoch})
			case r < push:
				if err := q.Push(next); err != nil {
					t.Fatalf("seed %d step %d: Push: %v", seed, step, err)
				}
				model = append(model, queueItem[int]{v: next})
				next++
			case r < pop:
				if len(model) > 0 { // an empty open queue would block
					popBatch(step)
				}
			default:
				v, barrier, e, ok := q.TryPop()
				switch {
				case len(model) == 0:
					if ok {
						t.Fatalf("seed %d step %d: TryPop on an empty queue answered ok", seed, step)
					}
				case !ok || barrier != model[0].barrier || e != model[0].epoch || v != model[0].v:
					t.Fatalf("seed %d step %d: TryPop = (%d, %v, %d, %v), want %+v", seed, step, v, barrier, e, ok, model[0])
				default:
					model = model[1:]
				}
			}
			checkLenOldest(t, seed, step, q, model)
		}

		q.Close()
		if err := q.Push(-1); !errors.Is(err, fsapi.ErrClosed) {
			t.Fatalf("seed %d: Push after Close = %v, want ErrClosed", seed, err)
		}
		if err := q.PushBarrier(epoch + 1); !errors.Is(err, fsapi.ErrClosed) {
			t.Fatalf("seed %d: PushBarrier after Close = %v, want ErrClosed", seed, err)
		}
		for step := steps; popBatch(step); step++ {
			checkLenOldest(t, seed, step, q, model)
		}
		if _, _, _, ok := q.TryPop(); ok {
			t.Fatalf("seed %d: TryPop on a closed, drained queue answered ok", seed)
		}
	}
	if edgeMarkers < seeds {
		t.Errorf("only %d markers landed on a segment's edge", edgeMarkers)
	}
}

// TestDrainedQueueKeepsOneSegment: a queue that held 10,000 messages and
// was drained holds the one segment it is on and no spare.
func TestDrainedQueueKeepsOneSegment(t *testing.T) {
	const n = 10000
	q := NewQueue[int]()
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	if got, want := segments(q), (n+segSize-1)/segSize; got != want {
		t.Fatalf("%d messages in %d segments, want %d", n, got, want)
	}
	var buf []int
	for i := 0; i < n; {
		var ok bool
		if buf, _, _, ok = q.PopBatchInto(buf, batchMax); !ok || buf[0] != i {
			t.Fatalf("pop at %d = %v, %v", i, buf, ok)
		}
		i += len(buf)
	}
	if got := segments(q); got != 1 || q.head != q.tail || q.spare != nil {
		t.Fatalf("drained queue holds %d segments (head is tail: %v) and spare %p, want one and none",
			got, q.head == q.tail, q.spare)
	}
	// It still works from the segment it kept.
	q.Push(-1)
	if v, _, _, ok := q.TryPop(); !ok || v != -1 || segments(q) != 1 {
		t.Fatalf("after a drain: TryPop = %d, %v with %d segments", v, ok, segments(q))
	}
}

// segments counts the segments reachable from the queue's head.
func segments[T any](q *Queue[T]) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for s := q.head; s != nil; s = s.next {
		n++
	}
	return n
}

// checkLenOldest checks Len (markers included) and Oldest (the first
// ordinary message, markers skipped) against the model.
func checkLenOldest(t *testing.T, seed int64, step int, q *Queue[int], model []queueItem[int]) {
	t.Helper()
	if n := q.Len(); n != len(model) {
		t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, n, len(model))
	}
	want, wantOK := 0, false
	for _, it := range model {
		if !it.barrier {
			want, wantOK = it.v, true
			break
		}
	}
	if v, ok := q.Oldest(); ok != wantOK || v != want {
		t.Fatalf("seed %d step %d: Oldest = (%d, %v), want (%d, %v)", seed, step, v, ok, want, wantOK)
	}
}

// TestQueueSteadyStateAllocatesNothing: once the queue has its working
// segments, a push and a pop allocate nothing — with the subscriber
// keeping up (depth 0), on the one segment it keeps, and lagging 64
// messages behind, where every segment the head empties comes back as the
// one the tail fills next.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, depth := range []int{0, 64} {
		q := NewQueue[int]()
		for i := 0; i < depth; i++ {
			q.Push(i)
		}
		buf := make([]int, 0, batchMax)
		// One measured run is 1,000 push+pop pairs, so AllocsPerRun
		// reports every allocation among them rather than an average
		// rounded down; its unmeasured warm-up run grows the buffer to
		// its working size.
		n := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				q.Push(i)
				buf, _, _, _ = q.PopBatchInto(buf, 1)
			}
		})
		if n != 0 {
			t.Errorf("depth %d: %v allocs in 1,000 push+pop pairs, want 0", depth, n)
		}
		if q.Len() != depth {
			t.Errorf("depth %d: Len = %d after the run", depth, q.Len())
		}
	}
}
