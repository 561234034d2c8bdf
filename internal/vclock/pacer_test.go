package vclock

import (
	"container/heap"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPacerSingleParticipantNeverBlocks(t *testing.T) {
	p := NewPacer(1, 0)
	for i := 0; i < 100; i++ {
		p.Advance(0, Time(i)*Time(time.Second)) // far beyond any window
	}
	p.Done(0)
	if live(p) != 0 {
		t.Fatal("live count wrong")
	}
}

// live counts the participants not yet retired.
func live(p *Pacer) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, alive := range p.alive {
		if alive {
			n++
		}
	}
	return n
}

func TestPacerBlocksFastParticipant(t *testing.T) {
	p := NewPacer(2, 10*time.Microsecond)
	released := make(chan struct{})
	go func() {
		// Participant 0 wants to run to 1ms while participant 1 sits at 0.
		p.Advance(0, Time(time.Millisecond))
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("fast participant must block outside the window")
	case <-time.After(20 * time.Millisecond):
	}
	// Let participant 1 catch up.
	p.Advance(1, Time(time.Millisecond))
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("fast participant never released")
	}
}

func TestPacerDoneReleasesWaiters(t *testing.T) {
	p := NewPacer(2, 10*time.Microsecond)
	released := make(chan struct{})
	go func() {
		p.Advance(0, Time(time.Millisecond))
		close(released)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Done(1) // the slow participant retires instead of advancing
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("Done did not release the waiter")
	}
	p.Done(1) // double Done is a no-op
	if n := live(p); n != 1 {
		t.Fatalf("live = %d", n)
	}
}

// closedLoop runs n clients against a k-worker resource with think time
// rtt and service time cost, returning the bottleneck utilization.
func closedLoop(n, per int, window Duration) float64 {
	res := NewResource("mds", 4)
	var wg sync.WaitGroup
	ends := make([]Time, n)
	pacer := NewPacer(n, window)
	rtt := 80 * time.Microsecond
	cost := 27 * time.Microsecond
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer pacer.Done(g)
			now := Time(0)
			for i := 0; i < per; i++ {
				pacer.Advance(g, now)
				done := res.Acquire(now.Add(rtt/2), cost)
				now = done.Add(rtt / 2)
			}
			ends[g] = now
		}(g)
	}
	wg.Wait()
	return res.Utilization(slices.Max(ends).Sub(0))
}

// The calibration property the whole experiment harness rests on: a
// saturated closed-loop system must drive the bottleneck near 100%
// utilization regardless of goroutine scheduling.
func TestPacerClosedLoopSaturatesBottleneck(t *testing.T) {
	if util := closedLoop(32, 120, 0); util < 0.9 {
		t.Fatalf("paced closed-loop utilization = %.3f, want > 0.9", util)
	}
}

// Reference: exact virtual-time-ordered execution of the same system
// (single-threaded event loop) reaches ~1.0; the paced concurrent run
// above must agree with it.
func TestExactOrderReferenceUtilization(t *testing.T) {
	var q clientHeap
	const n, per = 32, 120
	res := NewResource("mds", 4)
	rtt := 80 * time.Microsecond
	cost := 27 * time.Microsecond
	for i := 0; i < n; i++ {
		q = append(q, &pacedClient{})
	}
	heap.Init(&q)
	left := make(map[*pacedClient]int, n)
	var horizon Time
	for q.Len() > 0 {
		c := heap.Pop(&q).(*pacedClient)
		done := res.Acquire(c.now.Add(rtt/2), cost)
		c.now = done.Add(rtt / 2)
		horizon = Max(horizon, c.now)
		if left[c]++; left[c] < per {
			heap.Push(&q, c)
		}
	}
	if util := res.Utilization(horizon.Sub(0)); util < 0.99 {
		t.Fatalf("exact-order utilization = %.3f", util)
	}
}

type pacedClient struct{ now Time }

type clientHeap []*pacedClient

func (p clientHeap) Len() int           { return len(p) }
func (p clientHeap) Less(i, j int) bool { return p[i].now < p[j].now }
func (p clientHeap) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *clientHeap) Push(x any)        { *p = append(*p, x.(*pacedClient)) }
func (p *clientHeap) Pop() any {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}
