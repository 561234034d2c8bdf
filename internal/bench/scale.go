package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The scale experiment measures how virtual throughput holds up as the
// simulated client population grows from hundreds to a million. A
// goroutine per client stops being viable long before 10⁶ — the Go
// scheduler and the pacer both become the bottleneck under test instead
// of the metadata service — so the harness multiplexes: at most
// maxShardGoroutines shard goroutines each own clients/S simulated
// clients and advance their virtual clocks round-robin, one operation
// per client per sweep. Sweeping keeps every clock in a shard within
// about one operation of its siblings, so the virtual-time overlap that
// drives resource queueing is preserved even though only S goroutines
// exist in real time.

// maxShardGoroutines caps real concurrency: each shard goroutine
// multiplexes clients/S simulated client clocks.
const maxShardGoroutines = 64

// scaleWindow is the pacer window for the scale phase. A shard
// publishes whichever simulated clock it is currently advancing, so its
// published time wobbles over the intra-shard spread (about one
// operation, since sweeps are round-robin); the window is widened past
// that spread so the wobble does not read as skew and stall the shards
// against each other.
const scaleWindow = 20 * vclock.DefaultPacerWindow

// scaleWarmPaths is the shared stat working set (pre-created files).
const scaleWarmPaths = 1024

// ScalePoint is one client-count measurement.
type ScalePoint struct {
	Clients int `json:"clients"`
	Nodes   int `json:"nodes"`
	Shards  int `json:"shard_goroutines"`
	// MDSShards is the metadata-service shard count backing the point
	// (1 = the single MDS; >1 = subtree-partitioned pool).
	MDSShards    int   `json:"mds_shards"`
	OpsPerClient int   `json:"ops_per_client"`
	Ops          int64 `json:"ops"`
	Creates      int64 `json:"creates"`
	StatOps      int64 `json:"stats"`
	// VirtualOPS is client ops per second of virtual time, measured to
	// the end of the drain.
	VirtualOPS float64 `json:"virtual_ops_per_sec"`
	// MDSQueueWaitNSPerOp is the mean virtual queueing delay per op at
	// the MDS pool (time waiting for a free worker slot).
	MDSQueueWaitNSPerOp float64 `json:"mds_queue_wait_ns_per_op,omitempty"`
	// WallSeconds is real host time for the measured phase plus drain —
	// what a million simulated clients cost the harness, not the model.
	WallSeconds float64 `json:"wall_seconds"`
	CacheRPCs   int64   `json:"cache_rpcs"`
	BackendRPCs int64   `json:"backend_rpcs"`
	Coalesced   int64   `json:"coalesced"`
	// StageLatency holds wall-clock {count, p50, p95, p99} per pipeline
	// stage histogram — including the tracer's critpath_* segment
	// attributions — so a scale regression points at the stage that
	// moved, not just the headline number.
	StageLatency map[string]obs.Quantiles `json:"stage_latency_ns,omitempty"`
	// Trace reports the causal tracer's sampling behavior at this scale
	// (head-sample rate, spans sampled, anomalous spans tail-kept):
	// proof the tracer ran at the default rate during the sweep.
	Trace *obs.TraceStats `json:"trace,omitempty"`
}

// ScaleReport is the machine-readable result (BENCH_scale.json).
type ScaleReport struct {
	Experiment     string       `json:"experiment"`
	OpsBudget      int          `json:"ops_budget"`
	WarmPaths      int          `json:"warm_paths"`
	Points         []ScalePoint `json:"points"`
	PeakVirtualOPS float64      `json:"peak_virtual_ops_per_sec"`
	// ShardSweep reruns one scale point at the configured MDS shard
	// counts (subtree-partitioned metadata service).
	ShardSweep *ShardSweep `json:"shard_sweep,omitempty"`
}

// scaleScales returns the client counts to sweep.
func (c Config) scaleScales() []int {
	if len(c.ScaleClients) > 0 {
		return c.ScaleClients
	}
	return []int{160, 10_000, 100_000, 1_000_000}
}

// scaleBudget returns the total-op budget per point.
func (c Config) scaleBudget() int {
	if c.ScaleOpsBudget > 0 {
		return c.ScaleOpsBudget
	}
	return 1 << 20
}

// runScalePoint measures one client count against a fresh deployment.
func runScalePoint(cfg Config, clients int, warm []string) (ScalePoint, error) {
	start := time.Now()
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	// The sweep runs with tracing live at the default 1-in-64 head rate:
	// the point is to measure the service with its observability on, and
	// to prove the sampler survives a million multiplexed clients.
	o := obs.New()
	e.instrument(o)
	if err := e.provision("/w"); err != nil {
		return ScalePoint{}, err
	}
	shards := clients
	if shards > maxShardGoroutines {
		shards = maxShardGoroutines
	}
	cls, err := e.paconClients(shards, "/w")
	if err != nil {
		return ScalePoint{}, err
	}
	region := e.regions[len(e.regions)-1]
	runner := workload.NewRunner(cls)

	// Warm phase: pre-create the shared stat working set, striped over
	// the shards, then barrier (RunPhase's exit) before measuring.
	_, err = runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		var ops int64
		for i := idx; i < len(warm); i += shards {
			var err error
			if now, err = cl.Create(now, warm[i], 0o644); err != nil {
				return now, ops, err
			}
			ops++
		}
		return now, ops, nil
	})
	if err != nil {
		return ScalePoint{}, fmt.Errorf("warm phase: %w", err)
	}

	opsPer := cfg.scaleBudget() / clients
	if opsPer < 1 {
		opsPer = 1
	}
	var creates, stats atomic.Int64
	res, err := runner.RunPhaseWindow(scaleWindow, func(idx int, cl workload.Client, phaseStart vclock.Time) (vclock.Time, int64, error) {
		// This shard owns simulated clients {c : c % shards == idx},
		// each with its own virtual clock. Sweeps advance them
		// round-robin: one op per client per sweep, so sibling clocks
		// stay within about one operation of each other.
		n := (clients - idx + shards - 1) / shards
		clocks := make([]vclock.Time, n)
		for i := range clocks {
			clocks[i] = phaseStart
		}
		var ops, myCreates int64
		for k := 0; k < opsPer; k++ {
			for i := 0; i < n; i++ {
				c := idx + i*shards
				now := clocks[i]
				var err error
				if (c+k)%8 == 0 {
					// 1-in-8 creates; client-unique names.
					p := fmt.Sprintf("/w/s%d.%d", c, k)
					now, err = cl.Create(now, p, 0o644)
					myCreates++
				} else {
					// Stat a pseudo-random warm path (Weyl-style index
					// so the sequence is deterministic per client).
					j := (uint32(c)*2654435761 + uint32(k)*40503) % uint32(len(warm))
					_, now, err = cl.Stat(now, warm[j])
				}
				if err != nil {
					return now, ops, err
				}
				clocks[i] = now
				ops++
			}
		}
		end := phaseStart
		for _, t := range clocks {
			if t > end {
				end = t
			}
		}
		creates.Add(myCreates)
		stats.Add(ops - myCreates)
		return end, ops, nil
	})
	if err != nil {
		return ScalePoint{}, err
	}
	done, err := region.Drain(res.End)
	if err != nil {
		return ScalePoint{}, err
	}

	st := region.Stats()
	mdsShards := cfg.MDSShards
	if mdsShards < 1 {
		mdsShards = 1
	}
	pt := ScalePoint{
		Clients:      clients,
		Nodes:        cfg.nodesFor(clients),
		Shards:       shards,
		MDSShards:    mdsShards,
		OpsPerClient: opsPer,
		Ops:          res.Ops,
		Creates:      creates.Load(),
		StatOps:      stats.Load(),
		WallSeconds:  time.Since(start).Seconds(),
		CacheRPCs:    st.CacheRPCs,
		BackendRPCs:  st.BackendRPCs,
		Coalesced:    st.Coalesced,
	}
	if elapsed := done - res.Start; elapsed > 0 {
		pt.VirtualOPS = float64(res.Ops) / vclock.Duration(elapsed).Seconds()
	}
	pt.MDSQueueWaitNSPerOp = e.mdsQueueWaitPerOp()
	pt.StageLatency = o.HistQuantiles()
	ts := o.TraceStats()
	pt.Trace = &ts
	return pt, nil
}

// RunScale sweeps the configured client counts and derives the report.
func RunScale(cfg Config) (*ScaleReport, []*Figure, error) {
	warm := make([]string, scaleWarmPaths)
	for i := range warm {
		warm[i] = fmt.Sprintf("/w/warm%d", i)
	}

	rep := &ScaleReport{
		Experiment: "client scalability: multiplexed simulated clients, 1/8 create + 7/8 stat",
		OpsBudget:  cfg.scaleBudget(),
		WarmPaths:  scaleWarmPaths,
	}
	f := &Figure{
		ID: "scale", Title: "Throughput vs simulated client count (multiplexed harness)",
		XLabel: "clients", YLabel: "ops/s (virtual)",
		Series: []string{"virtualOPS", "shards", "wallSec"},
	}
	for _, n := range cfg.scaleScales() {
		pt, err := runScalePoint(cfg, n, warm)
		if err != nil {
			return nil, nil, fmt.Errorf("scale point %d clients: %w", n, err)
		}
		rep.Points = append(rep.Points, pt)
		if pt.VirtualOPS > rep.PeakVirtualOPS {
			rep.PeakVirtualOPS = pt.VirtualOPS
		}
		f.AddPoint(fmt.Sprintf("%d", n), map[string]float64{
			"virtualOPS": pt.VirtualOPS,
			"shards":     float64(pt.Shards),
			"wallSec":    pt.WallSeconds,
		})
	}
	if len(rep.Points) > 0 {
		last := rep.Points[len(rep.Points)-1]
		f.Note("%d simulated clients multiplexed onto %d goroutines: %.0f virtual ops/s, %.1fs wall",
			last.Clients, last.Shards, last.VirtualOPS, last.WallSeconds)
		f.Note("peak virtual throughput across scales: %.0f ops/s", rep.PeakVirtualOPS)
	}
	if len(cfg.ShardSweep) > 0 {
		sweep, err := runScaleShardSweep(cfg, cfg.ShardSweep, warm)
		if err != nil {
			return nil, nil, fmt.Errorf("scale shard sweep: %w", err)
		}
		rep.ShardSweep = sweep
		annotateSweep(f, sweep)
	}
	return rep, []*Figure{f}, nil
}
