package main

import (
	"fmt"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/memcache"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// counters is a snapshot of every public counter the per-layer block
// reads; metrics are differences of two snapshots around the timed
// epochs.
type counters struct {
	region  core.RegionStats
	cache   memcache.Stats
	mds     dfs.MDSStats
	mdsOps  int64
	mdsBusy vclock.Duration
	mdsWait vclock.Duration
}

func snapshot(d *deployment) counters {
	res := d.cluster.MDS.Resource()
	return counters{
		region: d.region.Stats(), cache: d.region.CacheStats(), mds: d.cluster.MDS.Stats(),
		mdsOps: res.Ops(), mdsBusy: res.BusyTime(), mdsWait: res.QueueWait(),
	}
}

// variant is the outcome of a few timed epochs on one deployment.
type variant struct {
	run     *run
	ops     int64
	wall    wallStats
	drainMS float64 // median Region.Drain wall time
	virt    vclock.Duration
	tail    hist // every latency sample of the timed epochs
	before  counters
	after   counters
}

// runVariant prepares a deployment and runs the timed epochs on it. The
// caller closes v.run.d.
func runVariant(w *workload, sz sizing, seed int64, epochs int, tr *tracer, o *obs.Obs) (*variant, error) {
	r, _, err := prepare(w, sz, seed, tr, o)
	if err != nil {
		return nil, err
	}
	v := &variant{run: r, before: snapshot(r.d)}
	for ci, rec := range r.recs {
		rec.depthMax = 0
		if tr != nil {
			rec.c = &tr.clients[ci]
		}
	}
	if tr != nil {
		tr.on.Store(true) // after the warm-up epoch: only timed epochs leave spans
	}
	var drainMS []float64
	for e := 0; e < epochs; e++ {
		er, err := r.epoch()
		if err != nil {
			r.d.close()
			return nil, err
		}
		v.ops += er.ops
		v.virt += er.virt
		v.wall.add(er)
		drainMS = append(drainMS, float64(er.drainWall.Microseconds())/1e3)
		for _, s := range er.samples {
			v.tail.add(s)
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	v.after = snapshot(r.d)
	v.drainMS = median(drainMS)
	return v, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced produces the per-layer block from three deployments of the
// same workload and seed — plain, traced, and with a default-sampling
// obs.Obs attached — plus the isolated per-layer calls. Public counters
// and tail latencies come from the plain deployment, which is configured
// exactly like the end-to-end run; span timings come from the traced one.
func runTraced(w *workload, sz sizing, seed int64, epochs, isolatedCalls int, outDir string) (*result, error) {
	res := &result{workload: w.name, epochs: epochs, metrics: map[string]metric{}}

	plain, err := runVariant(w, sz, seed, epochs, nil, nil)
	if err != nil {
		return nil, err
	}
	res.add(plain.run)
	res.samples = int(plain.tail.n)
	depthMax := 0
	for _, rec := range plain.run.recs {
		if rec.depthMax > depthMax {
			depthMax = rec.depthMax
		}
	}
	keys := plain.run.st.samplePaths()
	plain.run.d.close()

	tr := newTracer()
	traced, err := runVariant(w, sz, seed, epochs, tr, nil)
	if err != nil {
		return nil, err
	}
	res.add(traced.run)
	traced.run.d.close() // commit goroutines exit: their span buffers are now safe to read
	tf := tr.report(w.name, seed, epochs)
	path, err := writeTraceFile(outDir, tf)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s/trace_file %s (%d spans recorded, %d kept)\n", w.name, path, tf.SpansRecorded, tf.SpansKept)
	for _, l := range tf.Layers {
		fmt.Printf("%s/trace_layer %s under %s: spans=%d self_ms=%.1f share_of_median_client_op=%.3f\n",
			w.name, l.Layer, l.Under, l.Spans, l.SelfMS, l.ShareOfMedianOp)
	}

	withObs, err := runVariant(w, sz, seed, epochs, nil, obs.New())
	if err != nil {
		return nil, err
	}
	res.add(withObs.run)
	withObs.run.d.close()

	ops := float64(plain.ops)
	rs, rs0 := plain.after.region, plain.before.region
	onClient, onRoot := tr.totals(true), tr.totals(false)
	tops := float64(traced.ops)
	client := sumPrefix("client.", onClient)
	p50 := func(name string) float64 {
		if a := onClient[name]; a != nil {
			return a.h.quantile(0.5) / 1e3
		}
		return 0
	}

	// whole deployment: the wall-clock and CPU numbers of the plain variant
	plain.wall.report(res.set)

	// core
	res.set("core.client.self_us_per_op", ratio(float64(client.self)/1e3, tops), "us")
	res.set("core.client.create.p50_us", p50("client.create"), "us")
	res.set("core.client.stat.p50_us", p50("client.stat"), "us")
	res.set("core.client.remove.p50_us", p50("client.remove"), "us")
	res.set("core.client.readdir.p50_us", p50("client.readdir"), "us")
	res.set("core.client.rename.p50_us", p50("client.rename"), "us")
	res.set("core.client.ack_p99_us", plain.tail.quantile(0.99)/1e3, "us")
	res.set("core.client.ack_p999_us", plain.tail.quantile(0.999)/1e3, "us")
	coalesced := float64(rs.Coalesced - rs0.Coalesced)
	queued := coalesced + float64(rs.Committed-rs0.Committed+rs.Discarded-rs0.Discarded+rs.Dropped-rs0.Dropped)
	res.set("core.commit.coalesced_ratio", ratio(coalesced, queued), "ratio")
	res.set("core.commit.ops_per_batch", ratio(float64(rs.BatchedOps-rs0.BatchedOps), float64(rs.BatchRPCs-rs0.BatchRPCs)), "count")
	res.set("core.commit.cache_rpcs_per_op", ratio(float64(rs.CacheRPCs-rs0.CacheRPCs), ops), "count")
	res.set("core.commit.backend_rpcs_per_op", ratio(float64(rs.BackendRPCs-rs0.BackendRPCs), ops), "count")
	res.set("core.commit.drain_ms", plain.drainMS, "ms")
	res.set("core.commit.queue_depth_max", float64(depthMax), "count")
	res.set("core.commit.retries", float64(rs.Retries-rs0.Retries), "count")
	res.set("core.commit.dropped", float64(rs.Dropped-rs0.Dropped), "count")
	res.set("core.commit.batch_fallbacks", float64(rs.BatchFallbacks-rs0.BatchFallbacks), "count")
	res.set("core.evict.rounds", float64(rs.Evictions-rs0.Evictions), "count")
	res.set("core.barrier.scoped", float64(rs.BarriersScoped-rs0.BarriersScoped), "count")
	res.set("core.barrier.full", float64(rs.BarriersFull-rs0.BarriersFull), "count")
	res.set("core.cache_warms", float64(rs.CacheWarms-rs0.CacheWarms), "count")

	// memcache
	cs, cs0 := plain.after.cache, plain.before.cache
	hits, misses := float64(cs.Hits-cs0.Hits), float64(cs.Misses-cs0.Misses)
	res.set("memcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("memcache.hits", hits, "count")
	res.set("memcache.evictions", float64(cs.Evictions-cs0.Evictions), "count")
	res.set("memcache.items", float64(cs.Items), "count")
	res.set("memcache.used_mb", float64(cs.UsedBytes)/(1<<20), "MiB")
	res.set("memcache.served_per_op", ratio(float64(cs.ServedOps-cs0.ServedOps), ops), "count")

	// rpc (traced deployment: every Invoke of clients and commit processes)
	rc, rd := sumPrefix("rpc.cache.", onClient, onRoot), sumPrefix("rpc.dfs.", onClient, onRoot)
	res.set("rpc.cache.calls_per_op", ratio(float64(rc.n), tops), "count")
	res.set("rpc.cache.busy_us_per_op", ratio(float64(rc.dur)/1e3, tops), "us")
	res.set("rpc.cache.p95_us", rc.h.quantile(0.95)/1e3, "us")
	res.set("rpc.dfs.calls_per_op", ratio(float64(rd.n), tops), "count")
	res.set("rpc.dfs.busy_us_per_op", ratio(float64(rd.dur)/1e3, tops), "us")
	res.set("rpc.bytes_per_op", ratio(float64(rc.extra+rd.extra), tops), "B")

	// dfs (Backend wrapper on the traced deployment, MDS counters on the plain one)
	ab := sumPrefix("dfs.apply_batch", onClient, onRoot)
	st := sumPrefix("dfs.stat", onClient, onRoot)
	res.set("dfs.apply_batch.calls_per_op", ratio(float64(ab.n), tops), "count")
	res.set("dfs.apply_batch.us_per_call", ratio(float64(ab.dur)/1e3, float64(ab.n)), "us")
	res.set("dfs.apply_batch.ops_per_call", ratio(float64(ab.extra), float64(ab.n)), "count")
	res.set("dfs.stat.calls_per_op", ratio(float64(st.n), tops), "count")
	res.set("dfs.stat.us_per_call", ratio(float64(st.dur)/1e3, float64(st.n)), "us")
	res.set("dfs.mds.writes", float64(plain.after.mds.Writes-plain.before.mds.Writes), "count")
	res.set("dfs.mds.lookups", float64(plain.after.mds.Lookups-plain.before.mds.Lookups), "count")
	res.set("dfs.mds.queue_wait_us_per_op", ratio(float64((plain.after.mdsWait-plain.before.mdsWait).Microseconds()), float64(plain.after.mdsOps-plain.before.mdsOps)), "us")
	workers := float64(plain.run.d.cluster.MDS.Resource().Workers())
	res.set("dfs.mds.util", ratio(float64(plain.after.mdsBusy-plain.before.mdsBusy), float64(plain.virt)*workers), "ratio")

	// telemetry tax
	plainOps := median(plain.wall.opsPerS)
	res.set("obs.overhead_ratio", ratio(median(withObs.wall.opsPerS), plainOps), "ratio")
	res.set("trace.overhead_ratio", ratio(median(traced.wall.opsPerS), plainOps), "ratio")

	if err := isolatedLayers(res, keys, isolatedCalls); err != nil {
		return nil, err
	}
	return res, nil
}
