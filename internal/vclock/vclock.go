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
// e.g. the BeeGFS MDS worker pool or an IndexFS server's pool. Acquire
// serializes requests through the k slots using next-free accounting,
// which is an M/D/k-style queueing surrogate: when arrival rate exceeds
// k/cost the resource saturates and response times grow, exactly where
// the paper's centralized metadata service saturates.
//
// Resource is safe for concurrent use.
type Resource struct {
	name string

	mu      sync.Mutex
	workers []Time // next-free virtual time per worker slot

	ops  atomic.Int64
	busy atomic.Int64 // accumulated busy nanoseconds across workers
	wait atomic.Int64 // accumulated queueing delay (start - arrival)
}

// NewResource creates a resource with k worker slots. k must be >= 1.
func NewResource(name string, k int) *Resource {
	if k < 1 {
		panic(fmt.Sprintf("vclock: resource %q needs k >= 1, got %d", name, k))
	}
	return &Resource{name: name, workers: make([]Time, k)}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Workers returns the number of worker slots.
func (r *Resource) Workers() int { return len(r.workers) }

// Acquire schedules a request arriving at virtual time `at` with service
// cost `cost` on a worker slot and returns its completion time.
// Zero-cost acquisitions still pass through the queue (they model a
// request that must be ordered but is free to serve).
//
// Placement is best-fit: among workers already idle at the arrival time
// the one with the LATEST frontier wins, so a request arriving far in
// the virtual future (e.g. from a backlogged background commit process)
// occupies the worker closest to its own time instead of lifting the
// minimum frontier that present-time requests depend on. Only when no
// worker is idle at the arrival does the request queue on the earliest-
// free worker (the M/D/k case).
func (r *Resource) Acquire(at Time, cost Duration) Time {
	if cost < 0 {
		panic(fmt.Sprintf("vclock: negative cost %v on resource %q", cost, r.name))
	}
	r.mu.Lock()
	bestIdle := -1 // max nextFree among workers with nextFree <= at
	bestBusy := 0  // min nextFree overall
	for i := 0; i < len(r.workers); i++ {
		w := r.workers[i]
		if w <= at && (bestIdle < 0 || w > r.workers[bestIdle]) {
			bestIdle = i
		}
		if w < r.workers[bestBusy] {
			bestBusy = i
		}
	}
	pick := bestBusy
	if bestIdle >= 0 {
		pick = bestIdle
	}
	start := Max(at, r.workers[pick])
	done := start.Add(cost)
	r.workers[pick] = done
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
		r.workers[i] = 0
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
