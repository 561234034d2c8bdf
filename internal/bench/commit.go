package bench

import (
	"fmt"
	"sync"
	"time"

	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The commit experiment measures the commit path's round-trip economy
// (server-side conditional cache ops, dequeue batches, same-path
// coalescing, apply_batch) under a create/write/remove workload: cache
// round trips per created file, backend round trips, and end-to-end
// virtual throughput including the drain.

// CommitVariant is one run of the commit workload.
type CommitVariant struct {
	OpsSubmitted int64 `json:"ops_submitted"`
	Creates      int64 `json:"creates"`
	// Region commit-path counters after the drain.
	OpsCommitted int64 `json:"ops_committed"`
	Coalesced    int64 `json:"coalesced"`
	CacheRPCs    int64 `json:"cache_rpcs"`
	BackendRPCs  int64 `json:"backend_rpcs"`
	BatchRPCs    int64 `json:"batch_rpcs"`
	BatchedOps   int64 `json:"batched_ops"`
	// CacheRPCsPerCreate is the headline: commit-path cache round trips
	// spent per created file.
	CacheRPCsPerCreate float64 `json:"cache_rpcs_per_create"`
	// VirtualOPS is client ops per second of virtual time, measured to
	// the end of the drain (the backup copies all landed).
	VirtualOPS float64 `json:"virtual_ops_per_sec"`
	// MDSQueueWaitNSPerOp is the mean virtual queueing delay per op at
	// the MDS pool — how long metadata requests waited for a worker.
	MDSQueueWaitNSPerOp float64 `json:"mds_queue_wait_ns_per_op,omitempty"`
	// StageLatency holds wall-clock {count, p50, p95, p99} per pipeline
	// stage (client_op, queue_wait, cache_rpc, dfs_rpc, commit_lag, ...)
	// from the run's observability sink. Wall time is real host time —
	// orthogonal to VirtualOPS, which obs never perturbs.
	StageLatency map[string]obs.Quantiles `json:"stage_latency_ns,omitempty"`
	// Staleness is the consistency-lag digest for the variant: how far
	// the backup copy trailed the primary during the run.
	Staleness *StalenessBlock `json:"staleness_ns,omitempty"`
}

// StalenessBlock summarizes a variant's consistency lag, all in
// wall-clock nanoseconds. CommitLag digests per-op enqueue→durable-apply
// lag; MaxStaleness digests the region-wide oldest-unacked watermark as
// ticked by a wall-clock sampler while the workload and drain ran; Peak
// is the largest single commit lag the region ever acknowledged.
type StalenessBlock struct {
	CommitLag       obs.Quantiles `json:"commit_lag"`
	MaxStaleness    obs.Quantiles `json:"max_staleness"`
	PeakCommitLagNS int64         `json:"peak_commit_lag_ns"`
}

// CommitReport is the machine-readable result (BENCH_commit.json).
type CommitReport struct {
	Experiment     string        `json:"experiment"`
	Clients        int           `json:"clients"`
	ItemsPerClient int           `json:"items_per_client"`
	Batched        CommitVariant `json:"batched"`
	// ShardSweep reruns the commit wave at the configured MDS shard
	// counts (subtree-partitioned metadata service).
	ShardSweep *ShardSweep `json:"shard_sweep,omitempty"`
}

// commitPhase is one client's slice of the commit workload: it runs
// `items` iterations from `now` and returns the new time and op count.
type commitPhase func(idx int, fc workload.FileClient, now vclock.Time, items int) (vclock.Time, int64, error)

// defaultCommitPhase is the report's headline workload: create + inline
// write + every-4th remove. The inline writes ride the singleton commit
// path by design (data writes are not batchable), so the mix exercises
// both sides of applyWave.
func defaultCommitPhase(payload []byte) commitPhase {
	return func(idx int, fc workload.FileClient, now vclock.Time, items int) (vclock.Time, int64, error) {
		var ops int64
		var err error
		for j := 0; j < items; j++ {
			p := fmt.Sprintf("/w/c%d-f%d", idx, j)
			if now, err = fc.Create(now, p, 0o644); err != nil {
				return now, ops, err
			}
			ops++
			if now, err = fc.WriteAt(now, p, 0, payload); err != nil {
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
}

// runCommitVariant drives the workload against a fresh, instrumented
// region and collects its counters. A nil phase runs the default
// create+write+remove mix.
func runCommitVariant(cfg Config, clients int, phase commitPhase) (CommitVariant, error) {
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	o := obs.New()
	e.instrument(o)
	if err := e.provision("/w"); err != nil {
		return CommitVariant{}, err
	}
	cls, err := e.paconClients(clients, "/w")
	if err != nil {
		return CommitVariant{}, err
	}
	region := e.regions[len(e.regions)-1]

	// Sample the region's staleness watermark on the wall clock for the
	// whole run (workload + drain). The sampler reads atomics/short locks
	// only and never touches virtual time, so VirtualOPS is unaffected.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	stopSampler := sync.OnceFunc(func() {
		close(samplerStop)
		<-samplerDone
	})
	defer stopSampler()
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				o.Hist(obs.HistMaxStaleness).RecordN(region.MaxStaleness())
			}
		}
	}()

	runner := workload.NewRunner(cls)
	if phase == nil {
		phase = defaultCommitPhase(make([]byte, 256))
	}
	items := cfg.ItemsPerClient
	res, err := runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		return phase(idx, cl.(workload.FileClient), now, items)
	})
	if err != nil {
		return CommitVariant{}, err
	}
	done, err := region.Drain(res.End)
	if err != nil {
		return CommitVariant{}, err
	}

	st := region.Stats()
	creates := int64(clients * items)
	v := CommitVariant{
		OpsSubmitted: res.Ops,
		Creates:      creates,
		OpsCommitted: st.Committed,
		Coalesced:    st.Coalesced,
		CacheRPCs:    st.CacheRPCs,
		BackendRPCs:  st.BackendRPCs,
		BatchRPCs:    st.BatchRPCs,
		BatchedOps:   st.BatchedOps,
	}
	if creates > 0 {
		v.CacheRPCsPerCreate = float64(st.CacheRPCs) / float64(creates)
	}
	if elapsed := done - res.Start; elapsed > 0 {
		v.VirtualOPS = float64(res.Ops) / vclock.Duration(elapsed).Seconds()
	}
	v.MDSQueueWaitNSPerOp = e.mdsQueueWaitPerOp()
	stopSampler()
	q := o.HistQuantiles()
	v.StageLatency = q
	v.Staleness = &StalenessBlock{
		CommitLag:       q[obs.HistCommitLag],
		MaxStaleness:    q[obs.HistMaxStaleness],
		PeakCommitLagNS: region.MaxCommitLag(),
	}
	return v, nil
}

// RunCommit executes the commit workload (and the shard sweep, when
// configured) and builds the report.
func RunCommit(cfg Config) (*CommitReport, []*Figure, error) {
	clients := cfg.nodesFor(cfg.MaxNodes*cfg.ClientsPerNode) * cfg.ClientsPerNode / 2
	if clients < 2 {
		clients = 2
	}

	batched, err := runCommitVariant(cfg, clients, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("commit run: %w", err)
	}

	rep := &CommitReport{
		Experiment:     "commit-path round trips: conditional+coalesced+batched",
		Clients:        clients,
		ItemsPerClient: cfg.ItemsPerClient,
		Batched:        batched,
	}

	f := &Figure{
		ID: "commit", Title: "Commit path: conditional+coalesced+batched",
		XLabel: "variant", YLabel: "see series",
		Series: []string{"cacheRPCs/create", "backendRPCs", "committed", "coalesced", "virtualOPS"},
	}
	f.AddPoint("batched", map[string]float64{
		"cacheRPCs/create": batched.CacheRPCsPerCreate,
		"backendRPCs":      float64(batched.BackendRPCs),
		"committed":        float64(batched.OpsCommitted),
		"coalesced":        float64(batched.Coalesced),
		"virtualOPS":       batched.VirtualOPS,
	})
	f.Note("cache round trips per created file: %.2f", batched.CacheRPCsPerCreate)
	f.Note("backend round trips: %d (%d ops rode %d apply_batch RPCs)",
		batched.BackendRPCs, batched.BatchedOps, batched.BatchRPCs)
	f.Note("virtual throughput incl. drain: %.0f ops/s", batched.VirtualOPS)
	f.Note("peak commit lag (wall): %v", time.Duration(batched.Staleness.PeakCommitLagNS))
	if len(cfg.ShardSweep) > 0 {
		sweep, err := runCommitShardSweep(cfg, cfg.ShardSweep)
		if err != nil {
			return nil, nil, fmt.Errorf("commit shard sweep: %w", err)
		}
		rep.ShardSweep = sweep
		annotateSweep(f, sweep)
	}
	return rep, []*Figure{f}, nil
}
