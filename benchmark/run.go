package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"pacon/internal/obs"
	"pacon/internal/vclock"
)

type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opWrite
	opStat
	opStatMulti
	opRemove
	opRmdir
	opReaddir
	opRename
)

var clientSpanNames = [...]string{
	opMkdir: "client.mkdir", opCreate: "client.create", opWrite: "client.write",
	opStat: "client.stat", opStatMulti: "client.statmulti", opRemove: "client.remove",
	opRmdir: "client.rmdir", opReaddir: "client.readdir", opRename: "client.rename",
}

// recorder is one client's measurement state. begin/end bracket every
// core.Client call: one op = one call.
type recorder struct {
	d        *deployment
	every    int64
	ops      int64
	failed   int64
	mismatch int64 // results that differ from what the oracle expects
	firstErr error
	samples  []int64 // wall ns of every every-th op of the current epoch
	depthMax int
	c        *clientBuf // span buffer, set while this client's ops are traced
	opBase   uint64
}

var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

func (r *recorder) begin(k opKind) int64 {
	r.ops++
	if r.ops&4095 == 0 {
		r.sampleDepth()
	}
	if r.c != nil {
		r.c.push(clientSpanNames[k], r.opBase|uint64(r.ops), r.c.t.now())
	}
	if r.ops%r.every == 0 {
		return nanos()
	}
	return 0
}

func (r *recorder) end(t0 int64, err error) {
	if t0 != 0 {
		r.samples = append(r.samples, nanos()-t0)
	}
	if r.c != nil {
		r.c.pop(0)
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

func (r *recorder) sampleDepth() {
	if n := r.d.region.QueueDepth(); n > r.depthMax {
		r.depthMax = n
	}
}

// epochResult is what one epoch measured. The timed span is the ack
// phase (all clients running) plus Region.Drain.
type epochResult struct {
	ops        int64
	wall       time.Duration
	drainWall  time.Duration
	cpu        time.Duration
	allocBytes uint64
	virt       vclock.Duration
	samples    []int64 // sorted
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run is one prepared deployment with its workload state.
type run struct {
	w    *workload
	d    *deployment
	st   state
	recs []*recorder
	at   vclock.Time
}

// prepare builds a deployment, populates it, drains, runs the untimed
// warm-up epoch and collects garbage. Its duration is one setup_s sample.
func prepare(w *workload, sz sizing, seed int64, tr *tracer, o *obs.Obs) (*run, time.Duration, error) {
	t0 := time.Now()
	opts := deployOpts{tcp: w.tcp, tracer: tr, obs: o}
	if w.bounded {
		opts.cacheCap = sz.evictCapBytes
	}
	d, err := deploy(opts)
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, d: d, st: w.newState(sz, seed)}
	for ci := range d.clients {
		r.recs = append(r.recs, &recorder{d: d, every: int64(w.sampleEvery), opBase: uint64(ci+1) << 40})
	}
	if r.at, err = r.st.populate(d, r.recs, 0); err == nil {
		r.at, err = d.region.Drain(r.at)
	}
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("%s: populate: %w", w.name, err)
	}
	if _, err := r.epoch(); err != nil {
		d.close()
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

// epoch runs one fixed-op-count epoch on every client, drains, and
// collects garbage outside the timed span.
func (r *run) epoch() (epochResult, error) {
	var res epochResult
	var before, after runtime.MemStats
	var opsBefore int64
	for _, rec := range r.recs {
		opsBefore += rec.ops
		rec.samples = rec.samples[:0]
	}
	ends := make([]vclock.Time, len(r.recs))
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci := range r.recs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rec := r.recs[ci]
			if rec.c != nil {
				rec.c.attach()
				defer rec.c.detach()
			}
			ends[ci] = r.st.run(ci, r.d.clients[ci], rec, r.at)
			rec.sampleDepth()
		}(ci)
	}
	wg.Wait()
	ackEnd := r.at
	for _, e := range ends {
		ackEnd = vclock.Max(ackEnd, e)
	}
	tDrain := time.Now()
	drained, err := r.d.region.Drain(ackEnd)
	res.wall = time.Since(t0)
	res.drainWall = time.Since(tDrain)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, fmt.Errorf("%s: drain: %w", r.w.name, err)
	}
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.virt = drained.Sub(r.at)
	r.at = drained
	for _, rec := range r.recs {
		res.ops += rec.ops
		res.samples = append(res.samples, rec.samples...)
	}
	res.ops -= opsBefore
	slices.Sort(res.samples)
	runtime.GC()
	return res, nil
}

// tally sums the recorders: ops attempted, ops failed (errors plus
// oracle mismatches seen inline) and the first error for the log.
func (r *run) tally() (attempted, failed int64, firstErr error) {
	for _, rec := range r.recs {
		attempted += rec.ops
		failed += rec.failed + rec.mismatch
		if firstErr == nil {
			firstErr = rec.firstErr
		}
	}
	return
}

// quantileSorted reads the q-quantile (nearest rank) of sorted samples.
func quantileSorted(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[int(q*float64(len(s)-1)+0.5)])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome in either mode.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	epochs    int
	samples   int
	metrics   map[string]metric // what the JSON line carries
	lines     []string          // every "workload/metric value unit" line, in print order
}

// set reports a metric of the mode's block of BENCHMARK.json.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit)
}

// info prints a number without reporting it in the JSON line.
func (r *result) info(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%s/%s %s %s\n", r.workload, name, formatValue(v), unit))
}

// wallStats collects the wall-clock and CPU numbers of each epoch; each
// is reported as the median over the epochs. They depend on the speed of
// the host, which on the reference host drifts by more than a tenth
// between runs, so they carry no bound: the end-to-end run prints them
// and the traced run reports them in the per-layer block.
type wallStats struct {
	opsPerS, p50, p95, cpuPerOp []float64
}

func (s *wallStats) add(er epochResult) {
	n := float64(er.ops)
	s.opsPerS = append(s.opsPerS, n/er.wall.Seconds())
	s.p50 = append(s.p50, quantileSorted(er.samples, 0.50)/1e3)
	s.p95 = append(s.p95, quantileSorted(er.samples, 0.95)/1e3)
	s.cpuPerOp = append(s.cpuPerOp, float64(er.cpu.Microseconds())/n)
}

func (s *wallStats) report(put func(name string, v float64, unit string)) {
	put("ops_per_s", median(s.opsPerS), "ops/s")
	put("ack_p50_us", median(s.p50), "us")
	put("ack_p95_us", median(s.p95), "us")
	put("cpu_us_per_op", median(s.cpuPerOp), "us")
}

// endToEndSetups is how many times a run builds its deployment; setup_s
// is their median, and the epochs run on the last one.
const endToEndSetups = 5

// epochMillis is what one epoch takes on the reference host: -seconds
// buys seconds*1000/epochMillis timed epochs. The count follows from the
// arguments, never from the clock, so that two runs, and two commits,
// measure the same work and read the heap at the same point.
const epochMillis = 375

// liveHeapMiB reads what is still reachable after a second collection:
// the epoch just ran one, which can leave floating garbage.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd measures the end-to-end metrics over `epochs` timed
// epochs: the per-epoch ones are reported as the median over the epochs,
// live_heap_mb is read after the last.
func runEndToEnd(w *workload, sz sizing, seed int64, epochs, setups int) (*result, error) {
	var r *run
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.d.close()
			r = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		if r, took, err = prepare(w, sz, seed, nil, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer r.d.close()

	var wall wallStats
	var virtPerS, allocPerOp []float64
	samples := 0
	for e := 0; e < epochs; e++ {
		er, err := r.epoch()
		if err != nil {
			return nil, err
		}
		wall.add(er)
		virtPerS = append(virtPerS, float64(er.ops)/er.virt.Seconds())
		allocPerOp = append(allocPerOp, float64(er.allocBytes)/float64(er.ops))
		samples += len(er.samples)
	}

	res := &result{workload: w.name, epochs: epochs, samples: samples, metrics: map[string]metric{}}
	res.set("virt_ops_per_s", median(virtPerS), "ops/s")
	res.set("alloc_b_per_op", median(allocPerOp), "B")
	res.set("live_heap_mb", liveHeapMiB(), "MiB")
	res.set("setup_s", median(setupS), "s")
	wall.report(res.info)
	res.add(r)
	return res, nil
}

// add folds a finished run's op counts and oracle verdict into res.
func (res *result) add(r *run) {
	attempted, failed, firstErr := r.tally()
	oracleBad := r.st.verify(r.d)
	res.attempted += attempted
	res.failed += failed + int64(oracleBad)
	res.correct = res.failed == 0
	if firstErr != nil {
		fmt.Printf("%s/first_error %v\n", r.w.name, firstErr)
	}
	if oracleBad > 0 {
		fmt.Printf("%s/oracle_mismatches %d count\n", r.w.name, oracleBad)
	}
}
