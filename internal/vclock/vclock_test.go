package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * time.Microsecond)
	if got := t1.Sub(t0); got != 5*time.Microsecond {
		t.Fatalf("Sub = %v, want 5µs", got)
	}
	if Max(t0, t1) != t1 || Max(t1, t0) != t1 {
		t.Fatalf("Max wrong")
	}
}

func TestResourceSingleWorkerSerializes(t *testing.T) {
	r := NewResource("mds", 1)
	// Two requests arriving at the same instant must be served back to back.
	d1 := r.Acquire(0, 10*time.Microsecond)
	d2 := r.Acquire(0, 10*time.Microsecond)
	if d1 != Time(10*time.Microsecond) {
		t.Fatalf("first completion = %v", d1)
	}
	if d2 != Time(20*time.Microsecond) {
		t.Fatalf("second completion = %v, want serialized after first", d2)
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource("mds", 1)
	r.Acquire(0, 10*time.Microsecond)
	// A request arriving after the resource went idle starts immediately.
	d := r.Acquire(Time(100*time.Microsecond), 10*time.Microsecond)
	if d != Time(110*time.Microsecond) {
		t.Fatalf("completion = %v, want 110µs", d)
	}
}

func TestResourceParallelWorkers(t *testing.T) {
	r := NewResource("mds", 2)
	d1 := r.Acquire(0, 10*time.Microsecond)
	d2 := r.Acquire(0, 10*time.Microsecond)
	d3 := r.Acquire(0, 10*time.Microsecond)
	if d1 != Time(10*time.Microsecond) || d2 != Time(10*time.Microsecond) {
		t.Fatalf("two workers should serve two requests in parallel: %v %v", d1, d2)
	}
	if d3 != Time(20*time.Microsecond) {
		t.Fatalf("third request should queue: %v", d3)
	}
}

func TestResourceZeroCost(t *testing.T) {
	r := NewResource("x", 1)
	if d := r.Acquire(Time(5), 0); d != Time(5) {
		t.Fatalf("zero-cost acquire = %v, want arrival time", d)
	}
}

func TestResourceNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative cost")
		}
	}()
	NewResource("x", 1).Acquire(0, -time.Nanosecond)
}

func TestNewResourceValidatesWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on k=0")
		}
	}()
	NewResource("x", 0)
}

func TestResourceStats(t *testing.T) {
	r := NewResource("mds", 2)
	r.Acquire(0, 10*time.Microsecond)
	r.Acquire(0, 30*time.Microsecond)
	if r.Ops() != 2 {
		t.Fatalf("ops = %d", r.Ops())
	}
	if r.BusyTime() != 40*time.Microsecond {
		t.Fatalf("busy = %v", r.BusyTime())
	}
	// 40µs busy over 2 workers × 40µs horizon = 0.5 utilization.
	if u := r.Utilization(40 * time.Microsecond); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v", u)
	}
	r.Reset()
	if r.Ops() != 0 || r.BusyTime() != 0 {
		t.Fatal("reset did not clear stats")
	}
}

// The M/D/k property the experiments rely on: with k workers and fixed
// service time s, n simultaneous arrivals complete at ceil(n/k)*s.
func TestResourceSaturationThroughput(t *testing.T) {
	const (
		k = 4
		n = 1000
		s = 55 * time.Microsecond
	)
	r := NewResource("mds", k)
	var last Time
	for i := 0; i < n; i++ {
		last = Max(last, r.Acquire(0, s))
	}
	want := Time(time.Duration((n+k-1)/k) * s)
	if last != want {
		t.Fatalf("horizon = %v, want %v", last, want)
	}
}

func TestResourceConcurrentAcquire(t *testing.T) {
	const (
		workers = 3
		goros   = 16
		per     = 200
		cost    = time.Microsecond
	)
	r := NewResource("mds", workers)
	var wg sync.WaitGroup
	var wm Watermark
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				wm.Observe(r.Acquire(0, cost))
			}
		}()
	}
	wg.Wait()
	if r.Ops() != goros*per {
		t.Fatalf("ops = %d", r.Ops())
	}
	// Total busy time is exact regardless of interleaving.
	if r.BusyTime() != time.Duration(goros*per)*cost {
		t.Fatalf("busy = %v", r.BusyTime())
	}
	// The horizon is exactly busy/workers: all arrivals at t=0 keep every
	// worker busy until the end.
	want := Time(time.Duration(goros*per/workers) * cost)
	if got := wm.Load(); got != want && got != want+Time(cost) {
		t.Fatalf("watermark = %v, want ~%v", got, want)
	}
}

func TestWatermark(t *testing.T) {
	var w Watermark
	w.Observe(Time(5))
	w.Observe(Time(3))
	if w.Load() != Time(5) {
		t.Fatalf("watermark = %v", w.Load())
	}
	w.Reset()
	if w.Load() != 0 {
		t.Fatal("reset failed")
	}
}

// Property: completion time is never before arrival + cost, and never
// before a previous completion minus what parallelism allows.
func TestResourceAcquireMonotoneProperty(t *testing.T) {
	f := func(arrivals []uint16, costs []uint16) bool {
		r := NewResource("p", 2)
		n := len(arrivals)
		if len(costs) < n {
			n = len(costs)
		}
		for i := 0; i < n; i++ {
			at := Time(arrivals[i])
			cost := Duration(costs[i])
			done := r.Acquire(at, cost)
			if done < at.Add(cost) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyModelDefaults(t *testing.T) {
	m := Default()
	if m.CrossNodeRTT <= m.SameNodeRTT {
		t.Fatal("cross-node RTT must exceed same-node RTT")
	}
	if m.MDSWriteCost <= m.MDSReadCost {
		t.Fatal("MDS writes must cost more than reads (journal append)")
	}
	if m.CacheOpCost >= m.LSMGetHitCost {
		t.Fatal("in-memory cache op must be cheaper than on-disk LSM get")
	}
	if m.RTT(true) != m.SameNodeRTT || m.RTT(false) != m.CrossNodeRTT {
		t.Fatal("RTT selection wrong")
	}
	if m.OneWay(false) != m.CrossNodeRTT/2 {
		t.Fatal("OneWay wrong")
	}
}

func TestLatencyModelTransfer(t *testing.T) {
	m := Default()
	if m.Transfer(0) != 0 || m.Transfer(-5) != 0 {
		t.Fatal("non-positive sizes must be free")
	}
	if m.Transfer(2048) != 2*m.PerKB {
		t.Fatalf("2KiB transfer = %v, want %v", m.Transfer(2048), 2*m.PerKB)
	}
}

// A request stamped far in the future books its own span there: a
// present-time request that fits the gap before it is served in that
// gap, on one worker and on k, instead of queueing behind the
// reservation's frontier.
func TestResourcePresentPassesTheFuture(t *testing.T) {
	const c = 10 * time.Microsecond
	for _, k := range []int{1, 4} {
		r := NewResource("mds", k)
		for w := 0; w < k; w++ {
			if done := r.Acquire(Time(time.Second), c); done != Time(time.Second+c) {
				t.Fatalf("k=%d: reservation %d completes at %v", k, w, done)
			}
		}
		if done := r.Acquire(0, c); done != Time(c) {
			t.Fatalf("k=%d: a request at 0 behind a reservation at 1s completes at %v, want %v", k, done, c)
		}
		// One that does not fit before the reservation waits for its end.
		if done := r.Acquire(Time(time.Second-c/2), c); done != Time(time.Second+2*c) {
			t.Fatalf("k=%d: a request straddling the reservation completes at %v, want %v", k, done, time.Second+2*c)
		}
		if w := r.QueueWait(); w != c+c/2 {
			t.Fatalf("k=%d: queue wait %v, want %v", k, w, c+c/2)
		}
	}
}

// refStation is the calendar with no bound on its spans: per worker, the
// booked intervals in booking order, searched in full. It does not merge
// touching intervals, so a zero-cost request may start where two meet;
// the calendar, where a booking extended a span, cannot.
type refStation [][]span

func (ref refStation) acquire(at Time, cost Duration) Time {
	pick, best := 0, Time(-1)
	for w, booked := range ref {
		start := at
		for moved := true; moved; {
			moved = false
			for _, sp := range booked {
				if start < sp.end && sp.start < start.Add(cost) {
					start, moved = sp.end, true
				}
			}
		}
		if best < 0 || start < best {
			pick, best = w, start
		}
	}
	if cost > 0 {
		ref[pick] = append(ref[pick], span{best, best.Add(cost)})
	}
	return best.Add(cost)
}

// checkCalendars asserts each worker's spans are sorted, non-empty,
// disjoint and fewer than maxSpans.
func checkCalendars(t *testing.T, r *Resource) {
	t.Helper()
	for w := range r.workers {
		c := &r.workers[w]
		if c.n >= maxSpans {
			t.Fatalf("worker %d holds %d spans", w, c.n)
		}
		for i := 0; i < c.n; i++ {
			sp := c.at(i)
			if sp.start >= sp.end || i > 0 && c.at(i-1).end > sp.start {
				t.Fatalf("worker %d span %d = %v after %v", w, i, *sp, *c.at(max(i-1, 0)))
			}
		}
	}
}

// The calendar against a reference with no bound: while no worker has
// booked maxSpans intervals, every request with a cost completes when the
// reference's does. Past that, the station stays well-formed and within
// its bound, and no request completes before its arrival plus its cost.
func TestResourceMatchesUnboundedCalendar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	merged := 0
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(3)
		r, ref := NewResource("p", k), make(refStation, k)
		exact := true
		for i := 0; i < 400; i++ {
			at := Time(rng.Intn(4000))
			cost := Duration(rng.Intn(40))
			got := r.Acquire(at, cost)
			for w := range r.workers {
				exact = exact && len(ref[w]) < maxSpans
			}
			want := ref.acquire(at, cost)
			if exact && cost > 0 && got != want {
				t.Fatalf("trial %d, request %d (at %v, cost %v): completes at %v, unbounded calendar %v", trial, i, at, cost, got, want)
			}
			if got < at.Add(cost) {
				t.Fatalf("trial %d: completes at %v before arrival %v + cost %v", trial, got, at, cost)
			}
			checkCalendars(t, r)
		}
		if !exact {
			merged++
		}
	}
	if merged < 30 {
		t.Fatalf("only %d of 100 trials outgrew a calendar", merged)
	}
}

// BenchmarkResourceAcquire is a cache server's station under present-time
// arrivals with a far-future reservation every 16th request, the shape a
// commit process's settle gives it: once warm it allocates nothing.
func BenchmarkResourceAcquire(b *testing.B) {
	m := Default()
	r := NewResource("bench", m.CacheWorkers)
	var now Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			r.Acquire(now.Add(time.Millisecond), m.CacheOpCost)
			continue
		}
		now = r.Acquire(now, m.CacheOpCost) - Time(m.CacheOpCost/2)
	}
}
