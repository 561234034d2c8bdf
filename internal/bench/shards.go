package bench

import (
	"fmt"
	"strings"

	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The shard sweep reruns an experiment's workload against the
// subtree-partitioned metadata service (internal/dfs sharded mode) at a
// ladder of MDS shard counts. The headline is commit-wave scaling: with
// the namespace spread by subtree, the per-shard service resource stops
// being the bottleneck, virtual throughput grows toward linear with the
// pool, and the commit pipeline's queue_wait share of the critical path
// falls. Every point that degrades more than 10% below the single-shard
// baseline carries an explicit note — the sweep reports regressions, it
// does not hide them.

// ShardPoint is one shard-count measurement of a sweep.
type ShardPoint struct {
	Shards int `json:"shards"`
	// VirtualOPS is the workload's ops per second of virtual time at
	// this shard count (same meaning as the host report's headline).
	VirtualOPS float64 `json:"virtual_ops_per_sec"`
	// Speedup is VirtualOPS relative to the sweep's 1-shard point.
	Speedup float64 `json:"speedup_vs_1shard"`
	// QueueWaitShare is queue_wait's share of the traced critical path
	// (Σ count×p50 over the critpath_* histograms), when tracing ran.
	// Wall-clock, so it reflects host scheduling as much as the model.
	QueueWaitShare float64 `json:"queue_wait_critpath_share,omitempty"`
	// MDSQueueWaitNSPerOp is the mean *virtual* queueing delay per op at
	// the MDS pool — the saturation signal the sweep exists to relieve.
	MDSQueueWaitNSPerOp float64 `json:"mds_queue_wait_ns_per_op,omitempty"`
	BatchRPCs           int64   `json:"batch_rpcs,omitempty"`
	BackendRPCs         int64   `json:"backend_rpcs,omitempty"`
	CacheRPCs           int64   `json:"cache_rpcs,omitempty"`
	// Note flags points that degrade >10% below single-shard.
	Note string `json:"note,omitempty"`
}

// ShardSweep is the shard-scaling block embedded in the commit, read
// and scale reports (and written standalone by `paconbench -shardsjson`).
type ShardSweep struct {
	Workload string       `json:"workload"`
	Points   []ShardPoint `json:"points"`
	// MaxSpeedup is the best speedup any multi-shard point reached.
	MaxSpeedup float64 `json:"max_speedup"`
}

// queueWaitShare estimates queue_wait's share of the traced critical
// path from the critpath_* histograms: Σ count×p50 per segment, then
// queue_wait over the total. An approximation (p50×count, not a true
// sum), but stable enough to show the trend across shard counts.
func queueWaitShare(q map[string]obs.Quantiles) float64 {
	var total, qw float64
	for name, h := range q {
		if !strings.HasPrefix(name, "critpath_") {
			continue
		}
		w := float64(h.Count) * float64(h.P50)
		total += w
		if name == "critpath_"+obs.SegQueueWait {
			qw = w
		}
	}
	if total <= 0 {
		return 0
	}
	return qw / total
}

// finishSweep derives speedups against the first point (the 1-shard
// baseline) and attaches honesty notes to degraded points.
func finishSweep(s *ShardSweep) {
	if len(s.Points) == 0 {
		return
	}
	base := s.Points[0].VirtualOPS
	for i := range s.Points {
		p := &s.Points[i]
		if base > 0 {
			p.Speedup = p.VirtualOPS / base
		}
		if p.Shards > 1 && p.Speedup > s.MaxSpeedup {
			s.MaxSpeedup = p.Speedup
		}
		if base > 0 && p.VirtualOPS < 0.9*base {
			p.Note = fmt.Sprintf("degrades %.0f%% vs single-shard on this workload", 100*(1-p.VirtualOPS/base))
		}
	}
}

// shardSweepPhase is the sweep's workload: a pure-metadata commit wave
// (create + every-4th remove, no data writes). The host commit report
// keeps its create+write+remove mix, but inline writes deliberately
// ride the singleton commit path — per-op round trips the shard router
// cannot parallelize — so they would measure the commit loop's RPC
// cadence, not the metadata service under test. Every op here is
// batchable: each wave ships as one apply_batch that the router splits
// into concurrent per-shard sub-batches.
func shardSweepPhase(idx int, fc workload.FileClient, now vclock.Time, items int) (vclock.Time, int64, error) {
	var ops int64
	var err error
	for j := 0; j < items; j++ {
		p := fmt.Sprintf("/w/c%d-f%d", idx, j)
		if now, err = fc.Create(now, p, 0o644); err != nil {
			return now, ops, err
		}
		ops++
		if j%4 == 0 {
			if now, err = fc.Remove(now, p); err != nil {
				return now, ops, err
			}
			ops++
		}
	}
	return now, ops, nil
}

// runCommitShardSweep reruns the batched commit wave at each shard
// count.
func runCommitShardSweep(cfg Config, counts []int) (*ShardSweep, error) {
	clients := cfg.nodesFor(cfg.MaxNodes*cfg.ClientsPerNode) * cfg.ClientsPerNode / 2
	if clients < 2 {
		clients = 2
	}
	s := &ShardSweep{Workload: "commit wave: create+remove metadata ops, batched commit path"}
	for _, n := range counts {
		scfg := cfg
		scfg.MDSShards = n
		v, err := runCommitVariant(scfg, clients, shardSweepPhase)
		if err != nil {
			return nil, fmt.Errorf("shard sweep %d shards: %w", n, err)
		}
		s.Points = append(s.Points, ShardPoint{
			Shards:              n,
			VirtualOPS:          v.VirtualOPS,
			QueueWaitShare:      queueWaitShare(v.StageLatency),
			MDSQueueWaitNSPerOp: v.MDSQueueWaitNSPerOp,
			BatchRPCs:           v.BatchRPCs,
			BackendRPCs:         v.BackendRPCs,
		})
	}
	finishSweep(s)
	return s, nil
}

// runReadShardSweep reruns the batched+scoped read mix at each shard
// count.
func runReadShardSweep(cfg Config, counts []int) (*ShardSweep, error) {
	clients := cfg.nodesFor(cfg.MaxNodes*cfg.ClientsPerNode) * cfg.ClientsPerNode / 2
	if clients < 4 {
		clients = 4
	}
	s := &ShardSweep{Workload: "read mix: readdir+stat sweeps with sibling writers, batched+scoped"}
	for _, n := range counts {
		scfg := cfg
		scfg.MDSShards = n
		v, err := runReadVariant(scfg, clients)
		if err != nil {
			return nil, fmt.Errorf("read shard sweep %d shards: %w", n, err)
		}
		s.Points = append(s.Points, ShardPoint{
			Shards:              n,
			VirtualOPS:          v.VirtualOPS,
			QueueWaitShare:      queueWaitShare(v.StageLatency),
			MDSQueueWaitNSPerOp: v.MDSQueueWaitNSPerOp,
		})
	}
	finishSweep(s)
	return s, nil
}

// runScaleShardSweep reruns one scale point — the largest configured
// client count at or below 10k (harness cost, not model cost, dominates
// above that) — at each shard count.
func runScaleShardSweep(cfg Config, counts []int, warm []string) (*ShardSweep, error) {
	clients := 0
	for _, n := range cfg.scaleScales() {
		if n <= 10_000 && n > clients {
			clients = n
		}
	}
	if clients == 0 {
		clients = cfg.scaleScales()[0]
	}
	s := &ShardSweep{Workload: fmt.Sprintf("scale point: %d multiplexed clients, 1/8 create + 7/8 stat", clients)}
	for _, n := range counts {
		scfg := cfg
		scfg.MDSShards = n
		pt, err := runScalePoint(scfg, clients, warm)
		if err != nil {
			return nil, fmt.Errorf("scale shard sweep %d shards: %w", n, err)
		}
		s.Points = append(s.Points, ShardPoint{
			Shards:              n,
			VirtualOPS:          pt.VirtualOPS,
			QueueWaitShare:      queueWaitShare(pt.StageLatency),
			MDSQueueWaitNSPerOp: pt.MDSQueueWaitNSPerOp,
			CacheRPCs:           pt.CacheRPCs,
			BackendRPCs:         pt.BackendRPCs,
		})
	}
	finishSweep(s)
	return s, nil
}

// RunShardSweep is the standalone experiment (`paconbench -shardsjson`,
// `make bench-shards`): the commit-wave sweep over cfg.ShardSweep
// (default 1/2/4/8) with its own figure.
func RunShardSweep(cfg Config) (*ShardSweep, []*Figure, error) {
	counts := cfg.ShardSweep
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	sweep, err := runCommitShardSweep(cfg, counts)
	if err != nil {
		return nil, nil, err
	}
	f := &Figure{
		ID: "shards", Title: "Commit-wave throughput vs MDS shard count (subtree-partitioned MDS)",
		XLabel: "shards", YLabel: "ops/s (virtual)",
		Series: []string{"virtualOPS", "speedup", "queueWaitShare", "mdsQueueWaitUS"},
	}
	for _, p := range sweep.Points {
		f.AddPoint(fmt.Sprintf("%d", p.Shards), map[string]float64{
			"virtualOPS":     p.VirtualOPS,
			"speedup":        p.Speedup,
			"queueWaitShare": p.QueueWaitShare,
			"mdsQueueWaitUS": p.MDSQueueWaitNSPerOp / 1e3,
		})
	}
	annotateSweep(f, sweep)
	return sweep, []*Figure{f}, nil
}

// annotateSweep adds the sweep's headline notes to a figure.
func annotateSweep(f *Figure, s *ShardSweep) {
	if len(s.Points) < 2 {
		return
	}
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	f.Note("shard sweep (%s): %.0f -> %.0f ops/s from %d to %d shards (max speedup %.2fx)",
		s.Workload, first.VirtualOPS, last.VirtualOPS, first.Shards, last.Shards, s.MaxSpeedup)
	if first.MDSQueueWaitNSPerOp > 0 {
		f.Note("MDS queue wait (virtual): %.1fus -> %.1fus per op from %d to %d shards",
			first.MDSQueueWaitNSPerOp/1e3, last.MDSQueueWaitNSPerOp/1e3, first.Shards, last.Shards)
	}
	if first.QueueWaitShare > 0 && last.QueueWaitShare > 0 {
		f.Note("queue_wait critical-path share (wall): %.0f%% at %d shard(s) -> %.0f%% at %d",
			100*first.QueueWaitShare, first.Shards, 100*last.QueueWaitShare, last.Shards)
	}
	for _, p := range s.Points {
		if p.Note != "" {
			f.Note("%d shards: %s", p.Shards, p.Note)
		}
	}
}
