package mq

import (
	"errors"
	"math/rand"
	"testing"

	"pacon/internal/fsapi"
)

// TestQueueMatchesModel drives the queue with seeded random sequences of
// every method the commit pipeline calls and checks each answer against a
// plain slice. A run drifts toward a target depth of up to 100 messages,
// so a lagging consumer keeps the head advancing through a full buffer
// and the push side compacting it. Each run ends with Close: pushes are
// refused, everything queued drains in order, then ok=false.
func TestQueueMatchesModel(t *testing.T) {
	const seeds, steps = 200, 500
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue[int]()
		var model []queueItem[int]
		var buf []int
		next, epoch := 0, uint64(0)
		target := rng.Intn(101) // depth the run drifts toward

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
			switch r := rng.Intn(100); {
			case r < 5:
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

// TestQueueSteadyStateAllocatesNothing: once the buffer has grown to its
// working size, a push and a pop allocate nothing — with the subscriber
// keeping up (depth 0) and lagging 64 messages behind, where the head
// keeps advancing and the push side keeps compacting.
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
