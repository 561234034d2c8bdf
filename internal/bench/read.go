package bench

import (
	"fmt"
	"sync/atomic"

	"pacon/internal/core"
	"pacon/internal/obs"
	"pacon/internal/workload"

	"pacon/internal/vclock"
)

// The read experiment measures the read path's round-trip economy
// (batched multi-key reads, bulk miss-loads, listing warms) and barrier
// latency (path-scoped barriers) under a readdir+stat-heavy mix with
// writers flooding sibling subtrees.

// ReadVariant is one run's measurements over the mix phase.
type ReadVariant struct {
	Readdirs int64 `json:"readdirs"`
	Stats    int64 `json:"stats"`
	// ReadOps = Readdirs + Stats: the denominator of the headline.
	ReadOps int64 `json:"read_ops"`
	// CacheRPCs is the reader clients' metadata-cache round trips during
	// the mix (a multi-key call counts once per owner contacted).
	CacheRPCs      int64   `json:"cache_rpcs"`
	CacheRPCsPerOp float64 `json:"cache_rpcs_per_op"`
	// CacheWarms counts listing/miss-loaded entries that stayed cached.
	CacheWarms int64 `json:"cache_warms"`
	// BarriersScoped/Full split the mix's dependent-op barriers by
	// whether participant shrinking engaged.
	BarriersScoped int64 `json:"barriers_scoped"`
	BarriersFull   int64 `json:"barriers_full"`
	// BarrierWait quantiles (wall ns) over every barrier in the run.
	BarrierWaitP50 int64 `json:"barrier_wait_p50_ns"`
	BarrierWaitP95 int64 `json:"barrier_wait_p95_ns"`
	BarrierWaitP99 int64 `json:"barrier_wait_p99_ns"`
	// VirtualOPS is mix-phase ops (readers + writers) per second of
	// virtual time.
	VirtualOPS float64 `json:"virtual_ops_per_sec"`
	// MDSQueueWaitNSPerOp is the mean virtual queueing delay per op at
	// the MDS pool (time waiting for a free worker slot).
	MDSQueueWaitNSPerOp float64                  `json:"mds_queue_wait_ns_per_op,omitempty"`
	StageLatency        map[string]obs.Quantiles `json:"stage_latency_ns,omitempty"`
}

// ReadReport is the machine-readable result (BENCH_read.json).
type ReadReport struct {
	Experiment      string      `json:"experiment"`
	Clients         int         `json:"clients"`
	Readers         int         `json:"readers"`
	Writers         int         `json:"writers"`
	FilesPerSubtree int         `json:"files_per_subtree"`
	Rounds          int         `json:"rounds"`
	BatchedScoped   ReadVariant `json:"batched_scoped"`
	// ShardSweep reruns the mix at the configured MDS shard counts
	// (subtree-partitioned metadata service).
	ShardSweep *ShardSweep `json:"shard_sweep,omitempty"`
}

// readRounds is how many readdir+stat sweeps each reader performs;
// even rounds list the reader's own hot subtree, odd rounds a
// DFS-resident cold one (first touch exercises the bulk miss-load).
const readRounds = 4

// runReadVariant drives the populate and mix phases against a fresh,
// instrumented region and collects its counters.
func runReadVariant(cfg Config, clients int) (ReadVariant, error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	o := obs.New()
	e.instrument(o)
	if err := e.provision("/w"); err != nil {
		return ReadVariant{}, err
	}
	cls, err := e.paconClients(clients, "/w")
	if err != nil {
		return ReadVariant{}, err
	}
	region := e.regions[len(e.regions)-1]
	pcs := make([]*core.Client, clients)
	for i, cl := range cls {
		pcs[i] = cl.(*core.Client)
	}

	writers := clients / 4
	if writers < 1 {
		writers = 1
	}
	items := cfg.ItemsPerClient

	// Populate: every client builds its own subtree. The readers'
	// subtrees are the hot set the mix re-lists; the writers' are the
	// siblings they churn.
	runner := workload.NewRunner(cls)
	res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		dir := fmt.Sprintf("/w/t%d", idx)
		var err error
		if now, err = cl.Mkdir(now, dir, 0o755); err != nil {
			return now, 0, err
		}
		for j := 0; j < items; j++ {
			if now, err = cl.Create(now, fmt.Sprintf("%s/f%d", dir, j), 0o644); err != nil {
				return now, 0, err
			}
		}
		return now, int64(items + 1), nil
	})
	if err != nil {
		return ReadVariant{}, fmt.Errorf("populate: %w", err)
	}
	if _, err := region.Drain(res.End); err != nil {
		return ReadVariant{}, err
	}
	// Cold subtrees land on the DFS behind the region's back (the
	// administrator writes them): the first listing must bulk miss-load.
	admin := e.cluster.NewClient("admin", adminCred, 0, 0)
	for i := writers; i < clients; i++ {
		dir := fmt.Sprintf("/w/cold%d", i)
		if _, err := admin.Mkdir(0, dir, 0o777); err != nil {
			return ReadVariant{}, err
		}
		for j := 0; j < items; j++ {
			if _, err := admin.Create(0, fmt.Sprintf("%s/f%d", dir, j), 0o666); err != nil {
				return ReadVariant{}, err
			}
		}
	}

	st0 := region.Stats()
	var rpc0 int64
	for i := writers; i < clients; i++ {
		rpc0 += pcs[i].CacheRPCs()
	}

	// Mix: writers churn their own (sibling) subtrees for the whole
	// phase while readers run ls -l sweeps — readdir, then stat every
	// child through StatMulti.
	// The mix mingles barrier ops with writers, so it runs unpaced (see
	// RunPhaseWindow): virtual throughput is reported but the headline
	// metrics are RPC counts and wall-clock barrier waits.
	var readdirs, stats atomic.Int64
	mix, err := runner.RunPhaseWindow(workload.NoSkewBound, func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		if idx < writers {
			dir := fmt.Sprintf("/w/t%d", idx)
			var ops int64
			var err error
			for j := 0; j < 2*items; j++ {
				p := fmt.Sprintf("%s/c%d", dir, j)
				if now, err = cl.Create(now, p, 0o644); err != nil {
					return now, ops, err
				}
				ops++
				if j%4 == 0 {
					if now, err = cl.Remove(now, p); err != nil {
						return now, ops, err
					}
					ops++
				}
			}
			return now, ops, nil
		}
		pc := cl.(*core.Client)
		var ops int64
		for round := 0; round < readRounds; round++ {
			dir := fmt.Sprintf("/w/t%d", idx)
			if round%2 == 1 {
				dir = fmt.Sprintf("/w/cold%d", idx)
			}
			ents, done, err := pc.Readdir(now, dir)
			now = done
			if err != nil {
				return now, ops, err
			}
			readdirs.Add(1)
			ops++
			children := make([]string, len(ents))
			for k, ent := range ents {
				children[k] = dir + "/" + ent.Name
			}
			sres, done, err := pc.StatMulti(now, children)
			now = done
			if err != nil {
				return now, ops, err
			}
			for k, sr := range sres {
				if sr.Err != nil {
					return now, ops, fmt.Errorf("stat %s: %w", children[k], sr.Err)
				}
			}
			stats.Add(int64(len(sres)))
			ops += int64(len(sres))
		}
		return now, ops, nil
	})
	if err != nil {
		return ReadVariant{}, fmt.Errorf("mix: %w", err)
	}

	st1 := region.Stats()
	var rpc1 int64
	for i := writers; i < clients; i++ {
		rpc1 += pcs[i].CacheRPCs()
	}
	v := ReadVariant{
		Readdirs:       readdirs.Load(),
		Stats:          stats.Load(),
		ReadOps:        readdirs.Load() + stats.Load(),
		CacheRPCs:      rpc1 - rpc0,
		CacheWarms:     st1.CacheWarms - st0.CacheWarms,
		BarriersScoped: st1.BarriersScoped - st0.BarriersScoped,
		BarriersFull:   st1.BarriersFull - st0.BarriersFull,
	}
	if v.ReadOps > 0 {
		v.CacheRPCsPerOp = float64(v.CacheRPCs) / float64(v.ReadOps)
	}
	if mix.Elapsed > 0 {
		v.VirtualOPS = float64(mix.Ops) / mix.Elapsed.Seconds()
	}
	v.MDSQueueWaitNSPerOp = e.mdsQueueWaitPerOp()
	q := o.HistQuantiles()
	v.StageLatency = q
	bw := q[obs.HistBarrierWait]
	v.BarrierWaitP50, v.BarrierWaitP95, v.BarrierWaitP99 = bw.P50, bw.P95, bw.P99
	return v, nil
}

// RunRead executes the read mix (and the shard sweep, when configured)
// and builds the report.
func RunRead(cfg Config) (*ReadReport, []*Figure, error) {
	clients := cfg.nodesFor(cfg.MaxNodes*cfg.ClientsPerNode) * cfg.ClientsPerNode / 2
	if clients < 4 {
		clients = 4
	}
	writers := clients / 4
	if writers < 1 {
		writers = 1
	}

	scoped, err := runReadVariant(cfg, clients)
	if err != nil {
		return nil, nil, fmt.Errorf("read run: %w", err)
	}

	rep := &ReadReport{
		Experiment:      "read path: batched reads + scoped barriers",
		Clients:         clients,
		Readers:         clients - writers,
		Writers:         writers,
		FilesPerSubtree: cfg.ItemsPerClient,
		Rounds:          readRounds,
		BatchedScoped:   scoped,
	}

	f := &Figure{
		ID: "read", Title: "Read path: batched reads + scoped barriers",
		XLabel: "variant", YLabel: "see series",
		Series: []string{"cacheRPCs/op", "barrierWaitP95us", "warms", "scopedBarriers", "virtualOPS"},
	}
	f.AddPoint("batched_scoped", map[string]float64{
		"cacheRPCs/op":     scoped.CacheRPCsPerOp,
		"barrierWaitP95us": float64(scoped.BarrierWaitP95) / 1e3,
		"warms":            float64(scoped.CacheWarms),
		"scopedBarriers":   float64(scoped.BarriersScoped),
		"virtualOPS":       scoped.VirtualOPS,
	})
	f.Note("cache RPCs per read op: %.2f", scoped.CacheRPCsPerOp)
	f.Note("p95 barrier wait under sibling writers: %.0fus", float64(scoped.BarrierWaitP95)/1e3)
	f.Note("%d entries warmed into the cache from listings/miss-loads", scoped.CacheWarms)
	if len(cfg.ShardSweep) > 0 {
		sweep, err := runReadShardSweep(cfg, cfg.ShardSweep)
		if err != nil {
			return nil, nil, fmt.Errorf("read shard sweep: %w", err)
		}
		rep.ShardSweep = sweep
		annotateSweep(f, sweep)
	}
	return rep, []*Figure{f}, nil
}
