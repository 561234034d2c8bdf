// Package vclock implements the virtual-time methodology described in
// DESIGN.md §5. Every service in this repository executes real code (real
// maps, real ordered tables, real CAS races); only *time* is modeled. A
// request carries a virtual timestamp, contended services are modeled as
// Resources with k worker slots, and throughput is computed from virtual
// completion times. This reproduces the paper's latency-driven results
// (MDS saturation, path-traversal cost, cache-absorbed writes)
// deterministically and at laptop speed.
package vclock

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of a run.
type Time int64

// Duration re-exports time.Duration so callers need only this package for
// virtual-time arithmetic.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// String renders the time as a duration since run start.
func (t Time) String() string { return Duration(t).String() }

// Resource models a contended service station with k parallel workers —
// e.g. the BeeGFS MDS worker pool or an IndexFS server's pool. It is a
// calendar: each worker keeps the spans it is busy, and Acquire books a
// request into the earliest gap at or after its arrival that fits it, on
// any worker. When arrival rate exceeds k/cost the gaps close, the
// resource saturates and response times grow (M/D/k), exactly where the
// paper's centralized metadata service saturates. A request stamped far
// in the virtual future (a backlogged background process) books its own
// span there and leaves the present's gaps to present-time requests,
// whatever order the goroutines reach the station in.
//
// Resource is safe for concurrent use.
type Resource struct {
	name string

	mu      sync.Mutex
	workers []calendar

	ops  atomic.Int64
	busy atomic.Int64 // accumulated busy nanoseconds across workers
	wait atomic.Int64 // accumulated queueing delay (start - arrival)
}

// maxSpans is the slots of a worker's calendar, one kept free: a booking
// that fills the last merges the oldest gap away. 64 (1 KiB a worker)
// holds the gaps an unpaced client that fell behind comes back to; with
// 16 the benchmark's stat_evict, two unpaced clients, read up to 6 %
// below next-free accounting. It costs a deployment a few KiB of heap.
const maxSpans = 64

// span is a busy interval [start, end) of one worker.
type span struct{ start, end Time }

// calendar is one worker's busy spans, sorted and disjoint, in a ring of
// maxSpans allocated at the first booking. A booking that touches a span
// extends it.
type calendar struct {
	ring    []span
	head, n int
}

func (c *calendar) at(i int) *span { return &c.ring[(c.head+i)%maxSpans] }

// fit returns the start of the earliest gap at or after at that holds
// cost, and the index of the span that follows that gap (n: none).
func (c *calendar) fit(at Time, cost Duration) (Time, int) {
	if c.n == 0 || c.at(c.n-1).end <= at {
		return at, c.n // the common case: idle from at on
	}
	lo := sort.Search(c.n, func(j int) bool { return c.at(j).end > at })
	start := at
	for ; lo < c.n && start.Add(cost) > c.at(lo).start; lo++ {
		start = Max(start, c.at(lo).end)
	}
	return start, lo
}

// book marks [start, end) busy; i is what fit returned for start.
func (c *calendar) book(start, end Time, i int) {
	switch {
	case i > 0 && c.at(i-1).end == start:
		c.at(i - 1).end = end
	case i < c.n && c.at(i).start == end:
		c.at(i).start = start
	default:
		if c.ring == nil {
			c.ring = make([]span, maxSpans)
		}
		for j := c.n; j > i; j-- { // only the calendar's future moves
			*c.at(j) = *c.at(j - 1)
		}
		*c.at(i) = span{start, end}
		if c.n++; c.n == maxSpans { // the oldest gap merges away
			c.at(1).start = c.at(0).start
			c.head, c.n = (c.head+1)%maxSpans, c.n-1
		}
	}
}

// NewResource creates a resource with k worker slots. k must be >= 1.
func NewResource(name string, k int) *Resource {
	if k < 1 {
		panic(fmt.Sprintf("vclock: resource %q needs k >= 1, got %d", name, k))
	}
	return &Resource{name: name, workers: make([]calendar, k)}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Workers returns the number of worker slots.
func (r *Resource) Workers() int { return len(r.workers) }

// Acquire books a request arriving at virtual time `at` with service
// cost `cost` into the earliest gap that holds it on any worker (the
// lowest-numbered worker on a tie) and returns its completion time.
// Zero-cost acquisitions still pass through the station (they model a
// request that must be ordered but is free to serve): they start in no
// busy span, and book none.
func (r *Resource) Acquire(at Time, cost Duration) Time {
	if cost < 0 {
		panic(fmt.Sprintf("vclock: negative cost %v on resource %q", cost, r.name))
	}
	r.mu.Lock()
	pick, start, next := 0, Time(0), 0
	for w := range r.workers {
		s, i := r.workers[w].fit(at, cost)
		if w == 0 || s < start {
			pick, start, next = w, s, i
		}
		if s == at {
			break
		}
	}
	done := start.Add(cost)
	if cost > 0 {
		r.workers[pick].book(start, done, next)
	}
	r.mu.Unlock()

	r.ops.Add(1)
	r.busy.Add(int64(cost))
	if start > at {
		r.wait.Add(int64(start - at))
	}
	return done
}

// Ops returns the number of acquisitions served.
func (r *Resource) Ops() int64 { return r.ops.Load() }

// BusyTime returns the total virtual busy time accumulated across workers.
func (r *Resource) BusyTime() Duration { return Duration(r.busy.Load()) }

// QueueWait returns the total virtual time requests spent queued for a
// worker slot (arrival to service start, summed over acquisitions) —
// the M/D/k waiting-time tally the station accumulates past saturation.
func (r *Resource) QueueWait() Duration { return Duration(r.wait.Load()) }

// Utilization reports busy-time divided by (workers × horizon). A value
// near 1.0 means the resource is the run's bottleneck.
func (r *Resource) Utilization(horizon Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.BusyTime()) / (float64(horizon) * float64(len(r.workers)))
}

// Reset clears the resource's schedule and counters between runs.
func (r *Resource) Reset() {
	r.mu.Lock()
	for i := range r.workers {
		r.workers[i].head, r.workers[i].n = 0, 0
	}
	r.mu.Unlock()
	r.ops.Store(0)
	r.busy.Store(0)
	r.wait.Store(0)
}

// Watermark tracks the maximum virtual time observed across concurrent
// actors; tests read it as a run's completion horizon.
type Watermark struct{ v atomic.Int64 }

// Observe folds t into the watermark.
func (w *Watermark) Observe(t Time) {
	for {
		cur := w.v.Load()
		if int64(t) <= cur || w.v.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Load returns the maximum observed time.
func (w *Watermark) Load() Time { return Time(w.v.Load()) }

// Reset clears the watermark.
func (w *Watermark) Reset() { w.v.Store(0) }
