package mq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// pop takes the next message or marker, blocking: PopBatchInto with a
// batch of one.
func pop[T any](q *Queue[T]) (v T, barrier bool, epoch uint64, ok bool) {
	batch, barrier, epoch, ok := q.PopBatchInto(nil, 1)
	if len(batch) == 1 {
		v = batch[0]
	}
	return v, barrier, epoch, ok
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 10; i++ {
		if err := q.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		v, barrier, _, ok := pop(q)
		if !ok || barrier || v != i {
			t.Fatalf("pop %d = (%d, %v, %v)", i, v, barrier, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestQueueBarrierInterleaving(t *testing.T) {
	q := NewQueue[string]()
	q.Push("a")
	q.PushBarrier(1)
	q.Push("b")

	v, barrier, _, _ := pop(q)
	if barrier || v != "a" {
		t.Fatal("first must be op a")
	}
	_, barrier, epoch, _ := pop(q)
	if !barrier || epoch != 1 {
		t.Fatalf("second must be barrier(1), got barrier=%v epoch=%d", barrier, epoch)
	}
	v, barrier, _, _ = pop(q)
	if barrier || v != "b" {
		t.Fatal("third must be op b")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue[int]()
	got := make(chan int, 1)
	go func() {
		v, _, _, ok := pop(q)
		if ok {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the popper block
	q.Push(42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("pop never woke")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.Push(2)
	q.Close()
	if err := q.Push(3); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("push after close = %v", err)
	}
	if v, _, _, ok := pop(q); !ok || v != 1 {
		t.Fatal("queued item lost after close")
	}
	if v, _, _, ok := pop(q); !ok || v != 2 {
		t.Fatal("queued item lost after close")
	}
	if _, _, _, ok := pop(q); ok {
		t.Fatal("drained closed queue must report !ok")
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[int]()
	if _, _, _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty must be !ok")
	}
	q.Push(7)
	if v, _, _, ok := q.TryPop(); !ok || v != 7 {
		t.Fatal("TryPop lost item")
	}
}

func TestQueueConcurrentPublishers(t *testing.T) {
	q := NewQueue[int]()
	const pubs = 8
	const per = 500
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(p*per + i)
			}
		}(p)
	}
	seen := make(map[int]bool, pubs*per)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pubs*per; i++ {
			v, _, _, ok := pop(q)
			if !ok {
				t.Error("queue closed early")
				return
			}
			if seen[v] {
				t.Errorf("duplicate %d", v)
				return
			}
			seen[v] = true
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != pubs*per || q.Len() != 0 {
		t.Fatalf("consumed %d messages, %d left queued", len(seen), q.Len())
	}
}

func TestQueuePerPublisherOrderPreserved(t *testing.T) {
	q := NewQueue[[2]int]() // [publisher, seq]
	const pubs = 4
	const per = 300
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push([2]int{p, i})
			}
		}(p)
	}
	wg.Wait()
	last := map[int]int{}
	for i := 0; i < pubs*per; i++ {
		v, _, _, _ := pop(q)
		if prev, ok := last[v[0]]; ok && v[1] != prev+1 {
			t.Fatalf("publisher %d order broken: %d after %d", v[0], v[1], prev)
		}
		last[v[0]] = v[1]
	}
}

// Full barrier protocol across three simulated commit processes.
func TestBarrierProtocol(t *testing.T) {
	const nodes = 3
	b := NewBarrier(nodes)
	queues := make([]*Queue[int], nodes)
	for i := range queues {
		queues[i] = NewQueue[int]()
	}

	var committed [nodes][]int
	var procWG sync.WaitGroup
	for i := 0; i < nodes; i++ {
		procWG.Add(1)
		go func(i int) {
			defer procWG.Done()
			now := vclock.Time(0)
			for {
				v, barrier, epoch, ok := pop(queues[i])
				if !ok {
					return
				}
				if barrier {
					b.Arrive(epoch, now)
					rel, err := b.AwaitRelease(epoch)
					if err != nil {
						return
					}
					now = vclock.Max(now, rel)
					continue
				}
				// "Committing" op v takes 10µs of virtual time.
				now = now.Add(10 * time.Microsecond)
				committed[i] = append(committed[i], v)
			}
		}(i)
	}

	// Each node has two pending ops, then a dependent op runs.
	for i := 0; i < nodes; i++ {
		queues[i].Push(i * 10)
		queues[i].Push(i*10 + 1)
	}
	epoch, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		queues[i].PushBarrier(epoch)
	}
	drained, err := b.AwaitArrivals(epoch)
	if err != nil {
		t.Fatal(err)
	}
	// Each proc committed 2 ops at 10µs each → drained at 20µs.
	if drained != vclock.Time(20*time.Microsecond) {
		t.Fatalf("drain time = %v", drained)
	}
	for i := 0; i < nodes; i++ {
		if len(committed[i]) != 2 {
			t.Fatalf("node %d committed %d ops before barrier", i, len(committed[i]))
		}
	}
	// Dependent op takes 50µs, then release.
	b.Release(epoch, drained.Add(50*time.Microsecond))

	// Post-barrier ops flow again.
	for i := 0; i < nodes; i++ {
		queues[i].Push(100 + i)
		queues[i].Close()
	}
	procWG.Wait()
	for i := 0; i < nodes; i++ {
		if len(committed[i]) != 3 {
			t.Fatalf("node %d total commits = %d", i, len(committed[i]))
		}
	}
}

// Two dependent ops must serialize: Begin blocks until the first epoch
// fully retires.
func TestBarrierSerializesEpochs(t *testing.T) {
	b := NewBarrier(1)
	e1, _ := b.Begin()

	started := make(chan uint64)
	go func() {
		e2, err := b.Begin()
		if err != nil {
			return
		}
		started <- e2
	}()

	select {
	case <-started:
		t.Fatal("second Begin must block while epoch 1 is active")
	case <-time.After(20 * time.Millisecond):
	}

	// Retire epoch 1: arrive, release, ack.
	b.Arrive(e1, 0)
	if _, err := b.AwaitArrivals(e1); err != nil {
		t.Fatal(err)
	}
	b.Release(e1, 0)
	if _, err := b.AwaitRelease(e1); err != nil {
		t.Fatal(err)
	}

	select {
	case e2 := <-started:
		if e2 != e1+1 {
			t.Fatalf("second epoch = %d", e2)
		}
	case <-time.After(time.Second):
		t.Fatal("second Begin never proceeded")
	}
}

func TestBarrierVirtualTimeJoin(t *testing.T) {
	b := NewBarrier(2)
	e, _ := b.Begin()
	b.Arrive(e, vclock.Time(100))
	b.Arrive(e, vclock.Time(300))
	at, err := b.AwaitArrivals(e)
	if err != nil || at != vclock.Time(300) {
		t.Fatalf("arrivals join = %v, %v", at, err)
	}
	b.Release(e, vclock.Time(500))
	r1, _ := b.AwaitRelease(e)
	r2, _ := b.AwaitRelease(e)
	if r1 != vclock.Time(500) || r2 != vclock.Time(500) {
		t.Fatalf("release times = %v, %v", r1, r2)
	}
}

func TestBarrierCloseUnblocks(t *testing.T) {
	b := NewBarrier(2)
	e, _ := b.Begin()
	errs := make(chan error, 2)
	go func() {
		_, err := b.AwaitArrivals(e)
		errs <- err
	}()
	go func() {
		_, err := b.AwaitRelease(e)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, fsapi.ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	}
	if _, err := b.Begin(); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("Begin after close = %v", err)
	}
}

func TestBarrierWrongEpochPanics(t *testing.T) {
	b := NewBarrier(1)
	e, _ := b.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("stale arrival must panic")
		}
	}()
	b.Arrive(e+1, 0)
}

func TestBarrierStress(t *testing.T) {
	const nodes = 4
	const epochs = 50
	b := NewBarrier(nodes)
	var wg sync.WaitGroup
	// Each "commit process" participates in every epoch.
	arrivals := make([]chan uint64, nodes)
	for i := range arrivals {
		arrivals[i] = make(chan uint64, epochs)
	}
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for e := range arrivals[i] {
				b.Arrive(e, vclock.Time(e))
				if _, err := b.AwaitRelease(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	for n := 0; n < epochs; n++ {
		e, err := b.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			arrivals[i] <- e
		}
		if _, err := b.AwaitArrivals(e); err != nil {
			t.Fatal(err)
		}
		b.Release(e, vclock.Time(e+1))
	}
	for i := range arrivals {
		close(arrivals[i])
	}
	wg.Wait()
	if got := b.Epoch(); got != epochs {
		t.Fatalf("final epoch = %d, want %d", got, epochs)
	}
}

func TestQueuePopBatchStopsAtBarrier(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.Push(2)
	q.Push(3)
	q.PushBarrier(7)
	q.Push(4)

	batch, barrier, _, ok := q.PopBatchInto(nil, 16)
	if !ok || barrier {
		t.Fatalf("first PopBatch = (%v, barrier=%v)", batch, barrier)
	}
	if len(batch) != 3 || batch[0] != 1 || batch[2] != 3 {
		t.Fatalf("batch before barrier = %v, want [1 2 3]", batch)
	}
	batch, barrier, epoch, ok := q.PopBatchInto(nil, 16)
	if !ok || !barrier || epoch != 7 || batch != nil {
		t.Fatalf("barrier PopBatch = (%v, barrier=%v, epoch=%d)", batch, barrier, epoch)
	}
	batch, barrier, _, ok = q.PopBatchInto(nil, 16)
	if !ok || barrier || len(batch) != 1 || batch[0] != 4 {
		t.Fatalf("trailing PopBatch = (%v, barrier=%v)", batch, barrier)
	}
}

func TestQueuePopBatchRespectsMax(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	batch, _, _, _ := q.PopBatchInto(nil, 2)
	if len(batch) != 2 || batch[0] != 0 || batch[1] != 1 {
		t.Fatalf("PopBatch(2) = %v", batch)
	}
	// max < 1 degrades to single-message pops rather than panicking.
	batch, _, _, _ = q.PopBatchInto(nil, 0)
	if len(batch) != 1 || batch[0] != 2 {
		t.Fatalf("PopBatch(0) = %v", batch)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after popping 3 of 5, want 2", q.Len())
	}
}

func TestQueuePopBatchBlocksAndClose(t *testing.T) {
	q := NewQueue[int]()
	got := make(chan []int, 1)
	go func() {
		batch, _, _, ok := q.PopBatchInto(nil, 8)
		if ok {
			got <- batch
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(42)
	select {
	case batch := <-got:
		if len(batch) != 1 || batch[0] != 42 {
			t.Fatalf("batch = %v", batch)
		}
	case <-time.After(time.Second):
		t.Fatal("PopBatch did not wake on Push")
	}
	q.Close()
	if _, _, _, ok := q.PopBatchInto(nil, 8); ok {
		t.Fatal("PopBatch on closed drained queue must report !ok")
	}
}
