package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The hotspot experiment closes the loop on the hotspot-telemetry
// subsystem: a zipf-skewed stat/create mix (the skew regime metadata
// traces actually show) runs at scale-bench fan-in — thousands of
// multiplexed simulated clients, not 160 — while the sketches watch,
// and the report grades them. Three verdicts per point: client p50/p99
// under skew, the per-shard load spread a hot subtree induces on the
// partitioned MDS pool (ranks are laid out so the hottest ranks share
// one directory, hence one shard), and the top-K sketch's recall of the
// true hot set the generator planted. The sweep crosses zipf s ∈ {1.0,
// 1.2, 1.4} with MDS shards ∈ {1, 4}.

const (
	// hotspotWarmPaths is the zipf key space: pre-created files split
	// across hotspotDirs directories in rank order, so ranks 0..63 (the
	// entire hot head) live in the first directory and the load they
	// attract concentrates on the shard that owns it.
	hotspotWarmPaths = 1024
	hotspotDirs      = 16
	// hotspotTopK is the hot-set size recall is measured over.
	hotspotTopK = 16
)

var (
	hotspotZipfS  = []float64{1.0, 1.2, 1.4}
	hotspotShards = []int{1, 4}
)

// HotspotPoint is one (zipf s, shard count) measurement.
type HotspotPoint struct {
	ZipfS     float64 `json:"zipf_s"`
	MDSShards int     `json:"mds_shards"`
	Clients   int     `json:"clients"`
	Shards    int     `json:"shard_goroutines"`
	Ops       int64   `json:"ops"`
	Creates   int64   `json:"creates"`
	StatOps   int64   `json:"stats"`
	// VirtualOPS is client ops per second of virtual time, to drain end.
	VirtualOPS  float64 `json:"virtual_ops_per_sec"`
	WallSeconds float64 `json:"wall_seconds"`
	// ClientOpP50NS/P99NS digest the client_op histogram: the
	// client-visible synchronous latency under this skew.
	ClientOpP50NS int64 `json:"client_op_p50_ns"`
	ClientOpP99NS int64 `json:"client_op_p99_ns"`
	// SketchRecall is |TopPaths(K) ∩ true top-K| / K — the acceptance
	// headline (≥0.9 required at s=1.2).
	SketchRecall float64 `json:"sketch_recall_top16"`
	// TopPathShare is the sketch's share estimate for the hottest path.
	TopPathShare float64 `json:"top_path_share"`
	// HotSubtree is the deepest subtree the rollup names past the
	// workspace root, with its share of all recorded ops — the split
	// candidate a rebalancer would act on.
	HotSubtree      string  `json:"hot_subtree,omitempty"`
	HotSubtreeShare float64 `json:"hot_subtree_share,omitempty"`
	// Per-shard load over the measured window (deltas, so the warm
	// phase doesn't blur the skew): ops served, busy time, utilization
	// of the shard's worker slots, and the spread stats over the ops.
	ShardOps                []int64   `json:"shard_ops,omitempty"`
	ShardUtilization        []float64 `json:"shard_utilization,omitempty"`
	ShardOpsMaxMeanPermille int64     `json:"shard_ops_max_mean_permille,omitempty"`
	ShardOpsCVPermille      int64     `json:"shard_ops_cv_permille,omitempty"`
	// MDSQueueWaitNSPerOp is the pool's mean virtual queueing delay per
	// op — the cost the skew induces.
	MDSQueueWaitNSPerOp float64 `json:"mds_queue_wait_ns_per_op,omitempty"`
}

// HotspotReport is the machine-readable result (BENCH_hotspot.json).
type HotspotReport struct {
	Experiment string         `json:"experiment"`
	WarmPaths  int            `json:"warm_paths"`
	Dirs       int            `json:"dirs"`
	TopK       int            `json:"top_k"`
	OpsBudget  int            `json:"ops_budget"`
	Points     []HotspotPoint `json:"points"`
	// MinRecallZipf12 is the worst sketch recall across the s=1.2
	// points — the acceptance criterion (≥0.9).
	MinRecallZipf12 float64 `json:"min_recall_zipf_1_2"`
}

// hotspotDir returns the directory owning a rank (rank-order layout:
// the first warm/dirs ranks share dir 0).
func hotspotDir(rank int) int { return rank / (hotspotWarmPaths / hotspotDirs) }

// hotspotLayout builds the rank-ordered key space.
func hotspotLayout() []string {
	paths := make([]string, hotspotWarmPaths)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/d%02d/f%04d", hotspotDir(i), i)
	}
	return paths
}

// mdsSnap snapshots per-shard served ops and busy time so the measured
// phase can be reported as deltas.
type mdsSnap struct {
	ops  []int64
	busy []int64
}

func (e *env) snapMDS() mdsSnap {
	s := mdsSnap{ops: make([]int64, len(e.cluster.MDSes)), busy: make([]int64, len(e.cluster.MDSes))}
	for i, m := range e.cluster.MDSes {
		st := m.Stats()
		s.ops[i] = st.Lookups + st.Reads + st.Writes
		s.busy[i] = int64(m.Resource().BusyTime())
	}
	return s
}

// runHotspotPoint measures one (zipf s, shard count) cell against a
// fresh deployment.
func runHotspotPoint(cfg Config, clients int, s float64) (HotspotPoint, error) {
	start := time.Now()
	e := newEnv(cfg, cfg.nodesFor(clients))
	defer e.close()
	o := obs.New()
	e.instrument(o)
	dirs := make([]string, 1, 1+hotspotDirs)
	dirs[0] = "/w"
	for d := 0; d < hotspotDirs; d++ {
		dirs = append(dirs, fmt.Sprintf("/w/d%02d", d))
	}
	if err := e.provision(dirs...); err != nil {
		return HotspotPoint{}, err
	}
	z := workload.NewZipfPaths(hotspotLayout(), s)
	shards := clients
	if shards > maxShardGoroutines {
		shards = maxShardGoroutines
	}
	cls, err := e.paconClients(shards, "/w")
	if err != nil {
		return HotspotPoint{}, err
	}
	region := e.regions[len(e.regions)-1]
	runner := workload.NewRunner(cls)

	// Warm phase: pre-create the key space, striped over the shards.
	_, err = runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		var ops int64
		for i := idx; i < z.Len(); i += shards {
			var err error
			if now, err = cl.Create(now, z.Path(i), 0o644); err != nil {
				return now, ops, err
			}
			ops++
		}
		return now, ops, nil
	})
	if err != nil {
		return HotspotPoint{}, fmt.Errorf("warm phase: %w", err)
	}
	if _, err := region.Drain(0); err != nil {
		return HotspotPoint{}, fmt.Errorf("warm drain: %w", err)
	}
	before := e.snapMDS()

	opsPer := cfg.scaleBudget() / clients
	if opsPer < 1 {
		opsPer = 1
	}
	var creates, stats atomic.Int64
	res, err := runner.RunPhaseWindow(scaleWindow, func(idx int, cl workload.Client, phaseStart vclock.Time) (vclock.Time, int64, error) {
		// Same multiplexing as the scale experiment: this shard owns
		// simulated clients {c : c % shards == idx}, swept round-robin
		// one op per client so sibling clocks stay aligned. Each shard
		// draws from its own deterministic zipf stream.
		stream := z.Stream(int64(idx) + 1)
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
				rank := stream.NextRank()
				var err error
				if (c+k)%8 == 0 {
					// 1-in-8 creates, placed in the zipf-picked rank's
					// directory: new-file traffic follows the same skew
					// as reads, which is what concentrates write load on
					// the hot subtree's shard (and churns the sketch's
					// key space with client-unique names).
					p := fmt.Sprintf("/w/d%02d/x%d.%d", hotspotDir(rank), c, k)
					now, err = cl.Create(now, p, 0o644)
					myCreates++
				} else {
					_, now, err = cl.Stat(now, z.Path(rank))
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
		return HotspotPoint{}, err
	}
	done, err := region.Drain(res.End)
	if err != nil {
		return HotspotPoint{}, err
	}
	after := e.snapMDS()

	mdsShards := cfg.MDSShards
	if mdsShards < 1 {
		mdsShards = 1
	}
	pt := HotspotPoint{
		ZipfS:       s,
		MDSShards:   mdsShards,
		Clients:     clients,
		Shards:      shards,
		Ops:         res.Ops,
		Creates:     creates.Load(),
		StatOps:     stats.Load(),
		WallSeconds: time.Since(start).Seconds(),
	}
	if elapsed := done - res.Start; elapsed > 0 {
		pt.VirtualOPS = float64(res.Ops) / vclock.Duration(elapsed).Seconds()
	}
	if q, ok := o.HistQuantiles()[obs.HistClientOp]; ok {
		pt.ClientOpP50NS, pt.ClientOpP99NS = q.P50, q.P99
	}
	pt.MDSQueueWaitNSPerOp = e.mdsQueueWaitPerOp()

	// Sketch verdicts against the generator's ground truth.
	top := o.TopPaths(hotspotTopK)
	if len(top) > 0 {
		pt.TopPathShare = top[0].Share
	}
	truth := make(map[string]bool, hotspotTopK)
	for _, p := range z.Hot(hotspotTopK) {
		truth[p] = true
	}
	hit := 0
	for _, hk := range top {
		if truth[hk.Path] {
			hit++
		}
	}
	pt.SketchRecall = float64(hit) / float64(hotspotTopK)
	// The split candidate: the deepest subtree past the workspace root
	// with at least 10% of the recorded load.
	for _, hk := range o.HotSubtrees(8, 0.10) {
		if len(hk.Path) > len("/w") {
			pt.HotSubtree, pt.HotSubtreeShare = hk.Path, hk.Share
			break
		}
	}

	// Per-shard measured-window load and spread.
	window := done - res.Start
	pt.ShardOps = make([]int64, len(after.ops))
	pt.ShardUtilization = make([]float64, len(after.ops))
	for i := range after.ops {
		pt.ShardOps[i] = after.ops[i] - before.ops[i]
		if w := e.cluster.MDSes[i].Resource().Workers(); w > 0 && window > 0 {
			pt.ShardUtilization[i] = float64(after.busy[i]-before.busy[i]) / (float64(w) * float64(window))
		}
	}
	sk := obs.Skew(pt.ShardOps)
	pt.ShardOpsMaxMeanPermille = sk.MaxMeanPermille
	pt.ShardOpsCVPermille = sk.CVPermille
	return pt, nil
}

// RunHotspot sweeps zipf skew × MDS shard count and derives the report.
func RunHotspot(cfg Config) (*HotspotReport, []*Figure, error) {
	// Scale-bench fan-in: the largest configured scale point at or below
	// 10k simulated clients (same rule as the scale shard sweep).
	clients := 0
	for _, n := range cfg.scaleScales() {
		if n <= 10_000 && n > clients {
			clients = n
		}
	}
	if clients == 0 {
		clients = cfg.scaleScales()[0]
	}
	rep := &HotspotReport{
		Experiment:      "hotspot telemetry: zipf-skewed stat/create mix, sketch recall + shard spread",
		WarmPaths:       hotspotWarmPaths,
		Dirs:            hotspotDirs,
		TopK:            hotspotTopK,
		OpsBudget:       cfg.scaleBudget(),
		MinRecallZipf12: 1,
	}
	f := &Figure{
		ID: "hotspot", Title: "Hotspot telemetry under zipf skew (sketch recall, shard spread)",
		XLabel: "zipf s / MDS shards", YLabel: "mixed",
		Series: []string{"recall", "topPathShare", "shardMaxMean", "p99us", "virtualOPS"},
	}
	seen12 := false
	for _, s := range hotspotZipfS {
		for _, n := range hotspotShards {
			scfg := cfg
			scfg.MDSShards = n
			pt, err := runHotspotPoint(scfg, clients, s)
			if err != nil {
				return nil, nil, fmt.Errorf("hotspot point s=%.1f shards=%d: %w", s, n, err)
			}
			rep.Points = append(rep.Points, pt)
			if s == 1.2 {
				seen12 = true
				if pt.SketchRecall < rep.MinRecallZipf12 {
					rep.MinRecallZipf12 = pt.SketchRecall
				}
			}
			f.AddPoint(fmt.Sprintf("s=%.1f/%dsh", s, n), map[string]float64{
				"recall":       pt.SketchRecall,
				"topPathShare": pt.TopPathShare,
				"shardMaxMean": float64(pt.ShardOpsMaxMeanPermille) / 1000,
				"p99us":        float64(pt.ClientOpP99NS) / 1e3,
				"virtualOPS":   pt.VirtualOPS,
			})
		}
	}
	if !seen12 {
		rep.MinRecallZipf12 = 0
	}
	annotateHotspot(f, rep)
	return rep, []*Figure{f}, nil
}

// annotateHotspot adds the report's headline notes to the figure.
func annotateHotspot(f *Figure, rep *HotspotReport) {
	f.Note("top-%d sketch recall at zipf s=1.2: %.2f (acceptance ≥ 0.90)", rep.TopK, rep.MinRecallZipf12)
	for _, pt := range rep.Points {
		if pt.MDSShards > 1 && pt.HotSubtree != "" {
			f.Note("s=%.1f/%dsh: hot subtree %s carries %.0f%% of ops; shard max/mean %.2fx",
				pt.ZipfS, pt.MDSShards, pt.HotSubtree, 100*pt.HotSubtreeShare,
				float64(pt.ShardOpsMaxMeanPermille)/1000)
		}
	}
}
