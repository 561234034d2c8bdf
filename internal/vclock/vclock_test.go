package vclock

import (
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
