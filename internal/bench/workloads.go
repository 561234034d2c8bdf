package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacon/internal/chaos"
	"pacon/internal/core"
	"pacon/internal/obs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// The report experiments. Each is a table of rows — a workload at a
// client count on an MDS pool — and every row is measured the same way:
// a fresh instrumented deployment, the workload's warm phase, its
// measured phase, the region drain, then one Point.

// reports maps a report experiment's id to its table.
var reports = map[string]struct {
	title string
	rows  func(Config) []row
}{
	"commit": {"Commit path: create + inline write + every-4th remove, to the end of the drain",
		func(c Config) []row { return []row{{mix: commitMix, clients: c.reportClients()}} }},
	"shards": {"Commit wave (create + every-4th remove, all batchable) vs MDS shard count",
		func(c Config) []row {
			counts := c.ShardSweep
			if len(counts) == 0 {
				counts = []int{1, 2, 4, 8}
			}
			return sweep(row{mix: commitWave, clients: c.reportClients()}, counts)
		}},
	"read": {"Read path: readdir + StatMulti sweeps under sibling writers, plus its MDS shard sweep",
		func(c Config) []row {
			base := row{mix: readMix, clients: c.reportClients()}
			return append([]row{base}, sweep(base, c.ShardSweep)...)
		}},
	"scale": {"Throughput vs simulated client count (multiplexed, 1/8 create + 7/8 stat), plus an MDS shard sweep",
		func(c Config) []row {
			var rows []row
			for _, n := range c.scaleScales() {
				rows = append(rows, row{mix: scaleMix, clients: n})
			}
			return append(rows, sweep(row{mix: scaleMix, clients: c.sweepClients()}, c.ShardSweep)...)
		}},
	"hotspot": {"Hotspot telemetry under zipf skew: sketch recall (acceptance >= 0.90 at s=1.2), shard spread",
		func(c Config) []row {
			var rows []row
			for _, s := range []float64{1.0, 1.2, 1.4} {
				rows = append(rows, sweep(row{mix: hotspotMix, clients: c.sweepClients(), zipfS: s}, []int{1, 4})...)
			}
			return rows
		}},
	"audit": {"Post-drain divergence audit across chaos schedules: committed cache entries vs DFS",
		func(c Config) []row {
			ops := max(c.ItemsPerClient, 20)
			var rows []row
			for _, sc := range []chaos.Config{
				{Seed: 1, Nodes: 2, Clients: 4, Ops: ops, FaultRate: 0.05, MaxFaultsPerPath: 2},
				{Seed: 2, Nodes: 3, Clients: 6, Ops: ops, FaultRate: 0.1, MaxFaultsPerPath: 2, StallEveryN: 7},
				{Seed: 3, Nodes: 2, Clients: 4, Ops: ops, Rmdir: true, DoomedDirs: 2},
				{Seed: 4, Nodes: 2, Clients: 4, Ops: ops, CacheCapacityBytes: 16 << 10},
			} {
				rows = append(rows, row{mix: chaosMix, clients: sc.Clients, chaos: &sc})
			}
			return rows
		}},
}

// row is one line of an experiment's table.
type row struct {
	mix       *mix
	clients   int           // simulated clients
	mdsShards int           // 0 = the single unsharded MDS
	zipfS     float64       // hotspot rows: key-popularity skew
	chaos     *chaos.Config // audit rows: the schedule chaos.Run owns end to end
}

// sweep returns base once per MDS shard count — the subtree-partitioned
// metadata service at a ladder of pool sizes. With the namespace spread
// by subtree the per-shard service resource stops being the bottleneck,
// virtual throughput grows toward linear with the pool, and the MDS
// queue wait falls.
func sweep(base row, counts []int) []row {
	rows := make([]row, len(counts))
	for i, n := range counts {
		rows[i] = base
		rows[i].mdsShards = n
	}
	return rows
}

// id renders the row's BENCH.json id under experiment.
func (r row) id(experiment string) string {
	id := fmt.Sprintf("%s/%s/%d/%d", experiment, r.mix.name, r.clients, r.mdsShards)
	switch {
	case r.chaos != nil:
		id += fmt.Sprintf("/seed%d", r.chaos.Seed)
	case r.zipfS != 0:
		id += fmt.Sprintf("/s%.1f", r.zipfS)
	}
	return id
}

// reportClients is the client count of the commit and read mixes: half
// the configured population (160 at paper scale).
func (c Config) reportClients() int { return max(c.MaxNodes*c.ClientsPerNode/2, 4) }

// scaleScales returns the client counts the scale experiment sweeps.
func (c Config) scaleScales() []int {
	if len(c.ScaleClients) > 0 {
		return c.ScaleClients
	}
	return []int{160, 10_000, 100_000, 1_000_000}
}

// scaleBudget returns the total-op budget per multiplexed row.
func (c Config) scaleBudget() int {
	if c.ScaleOpsBudget > 0 {
		return c.ScaleOpsBudget
	}
	return 1 << 20
}

// sweepClients is the fan-in of the scale shard sweep and the hotspot
// rows: the largest configured scale point at or below 10k simulated
// clients (harness cost, not model cost, dominates above that).
func (c Config) sweepClients() int {
	clients := 0
	for _, n := range c.scaleScales() {
		if n <= 10_000 && n > clients {
			clients = n
		}
	}
	if clients == 0 {
		clients = c.scaleScales()[0]
	}
	return clients
}

// mix is one workload: what its clients do against the deployment the
// runner built for the row.
type mix struct {
	name string
	// multiplexed mixes run at most maxGoroutines real clients, each
	// advancing clients/goroutines simulated client clocks.
	multiplexed bool
	// staleness ticks the region's oldest-unacked watermark into the
	// max_staleness histogram while the row runs.
	staleness bool
	// noDrain ends the measured window with the phase instead of the
	// drain (the read mix: its verdicts are RPC counts and barrier waits
	// of the mix itself).
	noDrain bool
	// dirs are provisioned beside the workspace root.
	dirs []string
	// run performs the warm phase (untimed) and the measured phase,
	// returning the latter's result.
	run func(*measurement) (workload.Result, error)
}

// measurement is one row's live deployment.
type measurement struct {
	cfg    Config
	row    row
	env    *env
	obs    *obs.Obs
	region *core.Region
	runner *workload.Runner
	extra  map[string]float64
	// afterDrain, when a mix sets it, derives verdicts that need the
	// drained region; window is the measured virtual window.
	afterDrain func(window vclock.Duration)
}

// measure runs the row against a fresh deployment. A non-nil Point next
// to an error is a measured row whose own gate failed.
func (r row) measure(cfg Config) (*Point, error) {
	if r.chaos != nil {
		return r.audit()
	}
	start := time.Now()
	cfg.MDSShards = r.mdsShards
	nodes := cfg.nodesFor(r.clients)
	e := newEnv(cfg, nodes)
	defer e.close()
	// Every row runs with obs attached and tracing live at the default
	// 1-in-64 head rate: the service is measured with its observability
	// on, and the sampler has to survive a million multiplexed clients.
	o := obs.New()
	e.instrument(o)
	if err := e.provision(append([]string{"/w"}, r.mix.dirs...)...); err != nil {
		return nil, err
	}
	goroutines := r.clients
	if r.mix.multiplexed {
		goroutines = min(goroutines, maxGoroutines)
	}
	cls, err := e.paconClients(goroutines, "/w")
	if err != nil {
		return nil, err
	}
	m := &measurement{
		cfg: cfg, row: r, env: e, obs: o, region: e.regions[0],
		runner: workload.NewRunner(cls), extra: map[string]float64{},
	}
	stopSampler := func() {}
	if r.mix.staleness {
		stopSampler = m.sampleStaleness()
	}
	defer stopSampler()

	res, err := r.mix.run(m)
	if err != nil {
		return nil, err
	}
	end := res.End
	if !r.mix.noDrain {
		if end, err = m.region.Drain(res.End); err != nil {
			return nil, err
		}
	}
	stopSampler()
	window := end.Sub(res.Start)
	if m.afterDrain != nil {
		m.afterDrain(window)
	}

	pt := &Point{
		Nodes:               nodes,
		Goroutines:          goroutines,
		Ops:                 res.Ops,
		WallSeconds:         time.Since(start).Seconds(),
		MDSQueueWaitNSPerOp: e.mdsQueueWaitPerOp(),
		Region:              m.region.Stats(),
		StageLatency:        o.HistQuantiles(),
		Trace:               o.TraceStats(),
		Extra:               m.extra,
	}
	if window > 0 {
		pt.VirtualOPS = float64(res.Ops) / window.Seconds()
	}
	if share := queueWaitShare(pt.StageLatency); share > 0 {
		pt.Extra["queue_wait_critpath_share"] = share
	}
	return pt, nil
}

// sampleStaleness samples the region's staleness watermark on the wall
// clock until the returned stop is called. The sampler reads atomics and
// short locks only and never touches virtual time, so VirtualOPS is
// unaffected.
func (m *measurement) sampleStaleness() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				m.obs.Hist(obs.HistMaxStaleness).RecordN(m.region.MaxStaleness())
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(quit)
		<-done
	})
}

// queueWaitShare estimates queue_wait's share of the traced critical
// path from the critpath_* histograms: Σ count×p50 per segment, then
// queue_wait over the total. An approximation (p50×count, not a true
// sum) and wall-clock, so it reflects host scheduling as much as the
// model — but stable enough to show the trend across shard counts.
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

// The commit mixes measure the commit path's round-trip economy
// (server-side conditional cache ops, dequeue batches, same-path
// coalescing, apply_batch). commit-mix is create + 256-byte inline write
// + every-4th remove: an inline write is a data write, which a wave
// sends through WriteAt after its one apply_batch, so the mix exercises
// both legs of applyWave. commit-wave drops the writes — per-op round
// trips the shard router cannot parallelize — so every op is metadata
// and each wave is one apply_batch the router splits into concurrent
// per-shard sub-batches: the workload of the shard sweep.
var (
	commitMix  = &mix{name: "commit-mix", staleness: true, run: commitRun(true)}
	commitWave = &mix{name: "commit-wave", staleness: true, run: commitRun(false)}
)

func commitRun(write bool) func(*measurement) (workload.Result, error) {
	return func(m *measurement) (workload.Result, error) {
		items := m.cfg.ItemsPerClient
		creates := float64(m.row.clients * items)
		m.extra["creates"] = creates
		m.afterDrain = func(vclock.Duration) {
			// The headline: commit-path cache round trips per created file.
			m.extra["cache_rpcs_per_create"] = float64(m.region.Stats().CacheRPCs) / creates
			m.extra["peak_commit_lag_ns"] = float64(m.region.MaxCommitLag())
		}
		payload := make([]byte, 256)
		return m.runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
			fc := cl.(workload.FileClient)
			var ops int64
			var err error
			for j := 0; j < items; j++ {
				p := fmt.Sprintf("/w/c%d-f%d", idx, j)
				if now, err = fc.Create(now, p, 0o644); err != nil {
					return now, ops, err
				}
				ops++
				if write {
					if now, err = fc.WriteAt(now, p, 0, payload); err != nil {
						return now, ops, err
					}
					ops++
				}
				if j%4 == 0 {
					if now, err = fc.Remove(now, p); err != nil {
						return now, ops, err
					}
					ops++
				}
			}
			return now, ops, nil
		})
	}
}

// readMix measures the read path's round-trip economy (batched
// multi-key reads, bulk miss-loads, listing warms) and barrier latency
// (path-scoped barriers) under a readdir+stat-heavy mix with a quarter
// of the clients flooding sibling subtrees with writes.
var readMix = &mix{name: "read-mix", noDrain: true, run: readRun}

// readRounds is how many readdir+stat sweeps each reader performs; even
// rounds list the reader's own hot subtree, odd rounds a DFS-resident
// cold one (first touch exercises the bulk miss-load).
const readRounds = 4

func readRun(m *measurement) (workload.Result, error) {
	clients, items := m.row.clients, m.cfg.ItemsPerClient
	writers := max(clients/4, 1)
	readers := m.runner.Clients()[writers:]

	// Populate: every client builds its own subtree. The readers'
	// subtrees are the hot set the mix re-lists; the writers' are the
	// siblings they churn.
	res, err := m.runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
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
		return res, fmt.Errorf("populate: %w", err)
	}
	if _, err := m.region.Drain(res.End); err != nil {
		return res, err
	}
	// Cold subtrees land on the DFS behind the region's back (the
	// administrator writes them): the first listing must bulk miss-load.
	admin := m.env.cluster.NewClient("admin", adminCred, 0, 0)
	for i := writers; i < clients; i++ {
		dir := fmt.Sprintf("/w/cold%d", i)
		if _, err := admin.Mkdir(0, dir, 0o777); err != nil {
			return res, err
		}
		for j := 0; j < items; j++ {
			if _, err := admin.Create(0, fmt.Sprintf("%s/f%d", dir, j), 0o666); err != nil {
				return res, err
			}
		}
	}
	readerRPCs := func() (n int64) {
		for _, cl := range readers {
			n += cl.(*core.Client).CacheRPCs()
		}
		return n
	}
	rpc0 := readerRPCs()

	// Mix: writers churn their own (sibling) subtrees for the whole
	// phase while readers run ls -l sweeps — readdir, then stat every
	// child through StatMulti. The mix mingles barrier ops with writers,
	// so it runs unpaced (see RunPhaseWindow): virtual throughput is
	// reported but the headline metrics are RPC counts and wall-clock
	// barrier waits.
	var readdirs, stats atomic.Int64
	res, err = m.runner.RunPhaseWindow(workload.NoSkewBound, func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
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
		return res, fmt.Errorf("mix: %w", err)
	}

	// The headline: the readers' metadata-cache round trips over the mix
	// (a multi-key call counts once per owner contacted) per read op.
	readOps := float64(readdirs.Load() + stats.Load())
	m.extra["writers"] = float64(writers)
	m.extra["readdirs"] = float64(readdirs.Load())
	m.extra["stats"] = float64(stats.Load())
	m.extra["reader_cache_rpcs"] = float64(readerRPCs() - rpc0)
	m.extra["cache_rpcs_per_read_op"] = m.extra["reader_cache_rpcs"] / readOps
	m.extra["barrier_wait_p95_ns"] = float64(m.obs.HistQuantiles()[obs.HistBarrierWait].P95)
	return res, nil
}

// The multiplexed mixes measure how virtual throughput holds up as the
// simulated client population grows from hundreds to a million. A
// goroutine per client stops being viable long before 10⁶ — the Go
// scheduler and the pacer both become the bottleneck under test instead
// of the metadata service — so at most maxGoroutines goroutines each own
// clients/G simulated clients and advance their virtual clocks
// round-robin, one operation per client per sweep. Sweeping keeps every
// clock in a goroutine within about one operation of its siblings, so
// the virtual-time overlap that drives resource queueing is preserved
// even though only G goroutines exist in real time.
const maxGoroutines = 64

// scaleWindow is the pacer window for a multiplexed phase. A goroutine
// publishes whichever simulated clock it is currently advancing, so its
// published time wobbles over the intra-goroutine spread (about one
// operation, since sweeps are round-robin); the window is widened past
// that spread so the wobble does not read as skew and stall the
// goroutines against each other.
const scaleWindow = 20 * vclock.DefaultPacerWindow

// precreate is the multiplexed mixes' warm phase: the shared stat
// working set, striped over the goroutines.
func (m *measurement) precreate(paths []string) error {
	g := len(m.runner.Clients())
	_, err := m.runner.RunPhase(func(idx int, cl workload.Client, now vclock.Time) (vclock.Time, int64, error) {
		var ops int64
		for i := idx; i < len(paths); i += g {
			var err error
			if now, err = cl.Create(now, paths[i], 0o644); err != nil {
				return now, ops, err
			}
			ops++
		}
		return now, ops, nil
	})
	if err != nil {
		return fmt.Errorf("warm phase: %w", err)
	}
	return nil
}

// multiplex is the multiplexed mixes' measured phase: the op budget
// split evenly over the simulated clients, 1-in-8 creates and the rest
// stats. picker returns goroutine idx's path chooser — the path client
// c creates or stats as its k-th op.
func (m *measurement) multiplex(picker func(idx int) func(c, k int, create bool) string) (workload.Result, error) {
	clients, g := m.row.clients, len(m.runner.Clients())
	opsPer := max(m.cfg.scaleBudget()/clients, 1)
	var creates atomic.Int64
	res, err := m.runner.RunPhaseWindow(scaleWindow, func(idx int, cl workload.Client, phaseStart vclock.Time) (vclock.Time, int64, error) {
		// This goroutine owns simulated clients {c : c % g == idx}, each
		// with its own virtual clock.
		pick := picker(idx)
		clocks := make([]vclock.Time, (clients-idx+g-1)/g)
		for i := range clocks {
			clocks[i] = phaseStart
		}
		var ops, myCreates int64
		for k := 0; k < opsPer; k++ {
			for i := range clocks {
				c := idx + i*g
				now := clocks[i]
				var err error
				if (c+k)%8 == 0 {
					now, err = cl.Create(now, pick(c, k, true), 0o644)
					myCreates++
				} else {
					_, now, err = cl.Stat(now, pick(c, k, false))
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
			end = vclock.Max(end, t)
		}
		creates.Add(myCreates)
		return end, ops, nil
	})
	if err != nil {
		return res, err
	}
	m.extra["ops_per_client"] = float64(opsPer)
	m.extra["creates"] = float64(creates.Load())
	m.extra["stats"] = float64(res.Ops - creates.Load())
	return res, nil
}

// scaleMix stats a shared warm set uniformly and creates client-unique
// names.
var scaleMix = &mix{name: "scale", multiplexed: true, run: func(m *measurement) (workload.Result, error) {
	warm := make([]string, 1024)
	for i := range warm {
		warm[i] = fmt.Sprintf("/w/warm%d", i)
	}
	if err := m.precreate(warm); err != nil {
		return workload.Result{}, err
	}
	return m.multiplex(func(int) func(c, k int, create bool) string {
		return func(c, k int, create bool) string {
			if create {
				return fmt.Sprintf("/w/s%d.%d", c, k)
			}
			// A pseudo-random warm path (Weyl-style index, so the
			// sequence is deterministic per client).
			return warm[(uint32(c)*2654435761+uint32(k)*40503)%uint32(len(warm))]
		}
	})
}}

// hotspotMix closes the loop on the hotspot-telemetry subsystem: a
// zipf-skewed stat/create mix (the skew regime metadata traces actually
// show) runs at scale fan-in while the sketches watch, and the row
// grades them: client p50/p99 under skew, the per-shard load spread a
// hot subtree induces on the partitioned MDS pool, and the top-K
// sketch's recall of the true hot set the generator planted.
var hotspotMix = &mix{name: "hotspot", multiplexed: true, dirs: hotspotDirNames(), run: hotspotRun}

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

// hotspotDir returns the directory owning a rank.
func hotspotDir(rank int) string {
	return fmt.Sprintf("/w/d%02d", rank/(hotspotWarmPaths/hotspotDirs))
}

func hotspotDirNames() []string {
	dirs := make([]string, hotspotDirs)
	for d := range dirs {
		dirs[d] = hotspotDir(d * hotspotWarmPaths / hotspotDirs)
	}
	return dirs
}

// mdsLoad snapshots per-shard served ops and busy time so the measured
// window can be reported as deltas (the warm phase must not blur the
// skew).
func (e *env) mdsLoad() (ops, busy []int64) {
	for _, mds := range e.cluster.MDSes {
		st := mds.Stats()
		ops = append(ops, st.Lookups+st.Reads+st.Writes)
		busy = append(busy, int64(mds.Resource().BusyTime()))
	}
	return ops, busy
}

func hotspotRun(m *measurement) (workload.Result, error) {
	paths := make([]string, hotspotWarmPaths)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/f%04d", hotspotDir(i), i)
	}
	z := workload.NewZipfPaths(paths, m.row.zipfS)
	if err := m.precreate(paths); err != nil {
		return workload.Result{}, err
	}
	if _, err := m.region.Drain(0); err != nil {
		return workload.Result{}, fmt.Errorf("warm drain: %w", err)
	}
	ops0, busy0 := m.env.mdsLoad()

	m.extra["zipf_s"] = m.row.zipfS
	m.afterDrain = func(window vclock.Duration) {
		q := m.obs.HistQuantiles()[obs.HistClientOp]
		m.extra["client_op_p50_ns"], m.extra["client_op_p99_ns"] = float64(q.P50), float64(q.P99)

		// Sketch verdicts against the generator's ground truth: recall is
		// |TopPaths(K) ∩ true top-K| / K.
		truth := make(map[string]bool, hotspotTopK)
		for _, p := range z.Hot(hotspotTopK) {
			truth[p] = true
		}
		hit := 0
		for i, hk := range m.obs.TopPaths(hotspotTopK) {
			if i == 0 {
				m.extra["top_path_share"] = hk.Share
			}
			if truth[hk.Path] {
				hit++
			}
		}
		m.extra["sketch_recall_top16"] = float64(hit) / hotspotTopK
		// The split candidate: the deepest subtree past the workspace root
		// with at least 10% of the recorded load — and whether it is the
		// directory the hot head was planted in.
		for _, hk := range m.obs.HotSubtrees(8, 0.10) {
			if len(hk.Path) > len("/w") {
				m.extra["hot_subtree_share"] = hk.Share
				if hk.Path == hotspotDir(0) {
					m.extra["hot_subtree_is_planted"] = 1
				}
				break
			}
		}

		// Per-shard load over the measured window and its spread.
		ops1, busy1 := m.env.mdsLoad()
		var utilMax float64
		for i, mds := range m.env.cluster.MDSes {
			ops1[i] -= ops0[i]
			if w := mds.Resource().Workers(); w > 0 && window > 0 {
				utilMax = max(utilMax, float64(busy1[i]-busy0[i])/(float64(w)*float64(window)))
			}
		}
		sk := obs.Skew(ops1)
		m.extra["shard_ops_max_mean_permille"] = float64(sk.MaxMeanPermille)
		m.extra["shard_ops_cv_permille"] = float64(sk.CVPermille)
		m.extra["shard_utilization_max"] = utilMax
	}

	return m.multiplex(func(idx int) func(c, k int, create bool) string {
		// Each goroutine draws from its own deterministic zipf stream.
		stream := z.Stream(int64(idx) + 1)
		return func(c, k int, create bool) string {
			rank := stream.NextRank()
			if create {
				// Creates land in the zipf-picked rank's directory:
				// new-file traffic follows the same skew as reads, which
				// is what concentrates write load on the hot subtree's
				// shard (and churns the sketch's key space with
				// client-unique names).
				return fmt.Sprintf("%s/x%d.%d", hotspotDir(rank), c, k)
			}
			return z.Path(rank)
		}
	})
}

// chaosMix turns the divergence auditor into a standing verification
// gate: chaos schedules (fault injection, stalls, rmdir races, cache
// pressure) run to quiescence and every one must end with a clean
// post-drain audit — zero divergent, zero stale-pending. chaos.Run owns
// the deployment, so these rows carry no virtual throughput.
var chaosMix = &mix{name: "chaos"}

func (r row) audit() (*Point, error) {
	start := time.Now()
	res, err := chaos.Run(*r.chaos)
	if err != nil {
		return nil, err
	}
	a := res.Audit
	pt := &Point{
		Nodes:        r.chaos.Nodes,
		Goroutines:   r.clients,
		Ops:          int64(res.ClientOps),
		WallSeconds:  time.Since(start).Seconds(),
		Region:       res.Stats,
		StageLatency: map[string]obs.Quantiles{},
		Extra: map[string]float64{
			"injected_faults": float64(res.Injected),
			"injected_stalls": float64(res.Stalls),
			"sampled":         float64(a.Sampled),
			"matched":         float64(a.Matched),
			"stale_pending":   float64(a.StalePending),
			"divergent":       float64(a.Divergent),
		},
	}
	if a.Divergent > 0 || a.StalePending > 0 {
		return pt, errors.New("audit gate failed: divergence or post-drain stale-pending detected")
	}
	return pt, nil
}
