package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/mq"
	"pacon/internal/namespace"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Backend is the underlying DFS as seen by Pacon: the interfaces the
// commit module uses to apply operations ("system calls and DFS client",
// §III.D.1) and clients use for redirection and cache misses.
// dfs.Client implements it. It lists every method core calls and nothing
// else: no capability is discovered by type assertion, so a wrapper that
// embeds a Backend gets all of it promoted and overrides only what it
// changes.
type Backend interface {
	// Stat is the authoritative read: the answer for p comes from the
	// metadata service, never from client-local state. A cache-miss load
	// installs it as the region's primary copy, and the commit side
	// decides by it what the DFS holds now.
	Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error)
	// StatBatch is Stat for many paths in as few round trips as possible;
	// the result has one entry per path. A non-nil batch-level error is
	// for an implementation that cannot say more, and is read as that
	// error on every path.
	StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error)
	Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error)
	ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error)
	// ApplyBatch applies independent-path mutations in as few RPCs as
	// possible (one per metadata server touched). It is the only way
	// Pacon mutates DFS metadata — a commit wave of eight ops, a lone op,
	// every resubmission, and the one-op batches of the synchronous paths
	// (applyOne) alike — so a wrapper that gates, fails or counts
	// mutations overrides this one method. The error slice has one
	// entry per op: a metadata server that could not be reached fails
	// its own ops there and no others. A non-nil batch-level error is
	// for an implementation that cannot say more, and is read as that
	// error on every op. Each op that applied comes back with its Ino
	// filled in (fsapi.BatchOp): the commit side writes a file's bytes to
	// it, so a wrapper that forwards copies copies them back. ops is the
	// commit process's scratch, refilled for the next wave: an
	// implementation must not keep it past the call.
	ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error)
	// RmTree removes p's subtree and returns every path it removed, p
	// included (Rmdir drops exactly those from the cache).
	RmTree(at vclock.Time, p string) ([]string, vclock.Time, error)
	Rename(at vclock.Time, src, dst string) (vclock.Time, error)
	WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error)
	// WriteBatch writes whole small files, each at offset 0, in as few
	// round trips as possible (one per data server touched) — the bytes a
	// commit wave owes, right after the wave's ApplyBatch created the
	// files or set their stats. A FileWrite carries no size because that
	// batch carried it: an implementation asks the metadata service
	// nothing and updates nothing there, which WriteAt, a write into a
	// file of unknown size, must. The error slice has one entry per file;
	// a non-nil batch-level error is read as that error on every file.
	// files is the commit process's scratch: not to be kept past the call.
	WriteBatch(at vclock.Time, files []fsapi.FileWrite) ([]error, vclock.Time, error)
	// InvalidateSubtree drops whatever client-local lookup state the
	// implementation keeps at or under root (dfs.Client's directory
	// cache); a region calls it on every backend it built when an rmdir
	// or rename unlinks a subtree.
	InvalidateSubtree(root string)
	// Pace attaches a virtual-time pacer to the implementation's RPCs;
	// id is the client's participant index.
	Pace(p *vclock.Pacer, id int)
	// SetTrace tags the RPCs that follow with a span's trace context, so
	// the metadata servers record their side into the originating op's
	// span; ClearTrace removes the tag.
	SetTrace(span uint64)
	ClearTrace()
}

// RegionConfig declares one consistent region (paper §III.B: "the
// parameters of Pacon initialization mainly contain the path of the
// workspace and the network addresses of the nodes where the application
// runs").
type RegionConfig struct {
	// Name identifies the region (cache service addresses derive from it).
	Name string
	// Workspace is the region's subtree root; it must already exist on
	// the DFS (the administrator allocates it, §II.A).
	Workspace string
	// Nodes are the application's nodes; one cache server, one commit
	// queue and one commit process run on each.
	Nodes []string
	// Cred is the application's system user (one per application, §II.A).
	Cred fsapi.Cred
	// Perm is the predefined batch permission information (§III.C); zero
	// value = Linux-like creator-owns defaults.
	Perm PermSpec
	// SmallFileThreshold inlines files at or below this many bytes of
	// data with their metadata (default 4096, §III.D.2).
	SmallFileThreshold int
	// DisableParentCheck skips parent-existence checks on creation, for
	// applications that guarantee correct creation order themselves
	// (§III.C).
	DisableParentCheck bool
	// CacheCapacityBytes bounds each node's cache server; 0 = unlimited.
	// When an insert hits the bound, the region evicts committed
	// metadata round-robin (§III.F) and retries.
	CacheCapacityBytes int64
	// CommitRetryLimit caps resubmissions of a failed commit (default 64).
	CommitRetryLimit int
	// CommitBatchSize caps how many operations a commit process takes at
	// a time — from its queue, or from its parked ops on a resubmission
	// sweep — and ships to the DFS in one apply_batch RPC (default 8). It
	// is a width and nothing else: at 1 the same code sends each op as a
	// batch of one, so nothing coalesces — what deterministic tests pin.
	CommitBatchSize int
	// Model is the latency model.
	Model vclock.LatencyModel

	// AtRiskBound is the one ack rule: a mutation's ack returns once its
	// node holds fewer than this many at-risk ops — acked, or about to be,
	// and not yet on the DFS — its own included. 0, the default, is
	// unbounded: Pacon's asynchronous commit. 1 makes every op wait for its
	// own commit: Pacon without the paper's Benefit 3, the abl-async
	// ablation.
	AtRiskBound int
	// HierarchicalPermCheck is an ablation switch: permission checks
	// walk every path component through the distributed cache (one get
	// per level) instead of the batch permission match — the
	// layer-by-layer checking the paper's §III.C replaces.
	HierarchicalPermCheck bool
}

func (c RegionConfig) withDefaults() RegionConfig {
	if c.SmallFileThreshold <= 0 {
		c.SmallFileThreshold = 4096
	}
	if c.CommitRetryLimit <= 0 {
		c.CommitRetryLimit = 64
	}
	if c.CommitBatchSize == 0 {
		c.CommitBatchSize = 8
	}
	if c.CommitBatchSize < 1 {
		c.CommitBatchSize = 1
	}
	c.Workspace = namespace.Clean(c.Workspace)
	c.Perm = c.Perm.withDefaults(c.Cred)
	return c
}

// Deps wires a region to its environment.
type Deps struct {
	// Bus registers the region's cache servers and routes client RPCs —
	// rpc.NewBus() in-process, rpc.NewTCPNetwork() over real sockets.
	Bus rpc.Network
	// NewBackend builds a DFS client for a node (used by the node's
	// commit process, its cache server's miss-loads and Pacon clients'
	// redirection).
	NewBackend func(node string) Backend
	// Obs, when non-nil, enables the observability layer: op lifecycle
	// tracing, stage latency histograms, and gauge/counter registration.
	// Nil (the default) keeps the hot path to one branch per site. When
	// one Obs serves several regions, the last-registered region owns the
	// gauge/counter names. The tracer's head-sampling rate is the
	// registry's (Obs.SetSampleN), not a per-region setting.
	Obs *obs.Obs
}

// RegionStats aggregates commit-module counters.
type RegionStats struct {
	Committed int64 `json:"committed"` // ops applied to the DFS
	Discarded int64 `json:"discarded"` // creates dropped under an active rmdir (§III.D.1)
	Retries   int64 `json:"retries"`   // resubmissions (independent commit, §III.E.1)
	Dropped   int64 `json:"dropped"`   // ops abandoned after CommitRetryLimit
	Evictions int64 `json:"evictions"` // region-level eviction rounds (§III.F)
	// EvictedKeys is how many clean cache entries those rounds deleted.
	EvictedKeys int64 `json:"evicted_keys"`

	Coalesced      int64 `json:"coalesced"`       // queued ops merged away at dequeue time
	CacheRPCs      int64 `json:"cache_rpcs"`      // commit-path cache round trips (bookkeeping traffic)
	BackendRPCs    int64 `json:"backend_rpcs"`    // commit-path DFS round trips (batch counts as one)
	BatchRPCs      int64 `json:"batch_rpcs"`      // apply_batch calls issued
	BatchedOps     int64 `json:"batched_ops"`     // ops shipped inside apply_batch calls
	BatchFallbacks int64 `json:"batch_fallbacks"` // apply_batch calls that came back with a batch-level error

	BarriersScoped int64 `json:"barriers_scoped"` // sync barriers that skipped at least one queue
	BarriersFull   int64 `json:"barriers_full"`   // sync barriers that drained every queue
	CacheWarms     int64 `json:"cache_warms"`     // clean entries a read's miss-load added to the cache (every Loaded answer)
}

// Region is a running consistent region.
type Region struct {
	cfg  RegionConfig
	deps Deps

	// nodes are the region's application nodes (node.go) in cfg.Nodes
	// order; byName is the one index by node name, for the calls that are
	// handed one (NewClient, SimulateNodeFailure).
	nodes   []*node
	byName  map[string]*node
	ring    *dht.Ring
	barrier *mq.Barrier

	seq     atomic.Uint64
	ckptSeq atomic.Uint64

	removingMu sync.RWMutex
	removing   map[string]int // active rmdir targets -> refcount

	mergedMu sync.RWMutex
	merged   []remoteRegion

	// backends holds every backend the region has built (commit
	// processes and clients alike) so dependent operations can fan
	// invalidations out to all of them (see invalidateBackendSubtrees).
	backendsMu sync.Mutex
	backends   []Backend

	evictMu sync.Mutex
	// evictLast is the name of the last-evicted top-level entry; the next
	// round advances past it by name, which stays correct when the
	// directory's entry set changes between rounds (an index cursor would
	// skip or repeat entries).
	evictLast string
	// evictPaths is the round's scratch: the chosen subtree's paths
	// awaiting their mutate_multi fan-out (each deleted if clean), at most
	// evictChunk of them. Guarded by evictMu, reused across rounds.
	evictPaths []string

	// invalGen counts invalidations: rmdir, rename, and each settle that
	// deletes remove markers (committer.sendSettles). It is the miss-load's
	// guard (Region.loadToken, Region.current): a
	// load reads it before reading the DFS, and the owning cache server
	// checks it again under the key's lock just before the add. If it
	// moved, the load raced an invalidation and its stats may describe
	// deleted objects — the load adds nothing rather than resurrect stale
	// metadata that nothing would ever clean up.
	invalGen atomic.Uint64

	committed, discarded, retries, dropped, evictions atomic.Int64
	evictedKeys                                       atomic.Int64
	coalesced, cacheRPCs, backendRPCs                 atomic.Int64
	batchRPCs, batchedOps, batchFallbacks             atomic.Int64
	barriersScoped, barriersFull, cacheWarms          atomic.Int64

	// droppedRetry/droppedConflict/droppedBackend break dropped down by
	// terminal reason (see the dropReason* constants); maxLagNS is the
	// peak enqueue→durable latency any committed op has seen.
	droppedRetry, droppedConflict, droppedBackend atomic.Int64
	maxLagNS                                      atomic.Int64

	// lastAudit is the most recent divergence-audit verdict recorded via
	// RecordAudit; Health folds it in.
	auditMu   sync.Mutex
	lastAudit *AuditVerdict

	// obs is the observability registry (nil = disabled), barrierWait
	// and readdirEntries its two histograms the region itself records
	// into (resolved once; nil when disabled).
	obs                         *obs.Obs
	barrierWait, readdirEntries *obs.Histogram

	// healthPrev remembers the last Health() status so a worsening
	// transition (ok → degraded/stalled) can trigger the flight
	// recorder exactly once per transition.
	healthPrev atomic.Int32
	// skewSince is the wall time (unix nanos) at which Health() first
	// observed per-node load imbalance above the skew threshold, 0 while
	// balanced. Imbalance only degrades the region once it has persisted
	// for healthSkewSustainNS across polls.
	skewSince atomic.Int64

	// stall is where drainPending's stalled passes wait (Region.stallPass):
	// mu guards each node's commit state, waiting counts the passes on cond.
	stall struct {
		mu      sync.Mutex
		cond    sync.Cond
		waiting atomic.Int32
	}

	wg     sync.WaitGroup
	closed atomic.Bool
}

// remoteRegion is a merged peer's shareable view (§III.D.4: basic info —
// node addresses, permission information — plus a connection to its
// distributed caches; access is read-only).
type remoteRegion struct {
	workspace string
	ring      *dht.Ring
	perm      PermSpec
}

// NewRegion starts a consistent region: it launches one cache server and
// one commit process per node, verifies the workspace on the DFS, and
// seeds the cache with the workspace's metadata. Each cache server loads
// a get's miss through a backend of its own node (Region.loader).
func NewRegion(cfg RegionConfig, deps Deps) (*Region, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("core: region %q needs at least one node", cfg.Name)
	}
	if cfg.Workspace == "/" {
		return nil, fmt.Errorf("core: region %q cannot claim the namespace root", cfg.Name)
	}
	r := &Region{
		cfg:      cfg,
		deps:     deps,
		obs:      deps.Obs,
		byName:   make(map[string]*node, len(cfg.Nodes)),
		ring:     dht.New(0),
		barrier:  mq.NewBarrier(len(cfg.Nodes)),
		removing: make(map[string]int),

		barrierWait:    deps.Obs.Hist(obs.HistBarrierWait),
		readdirEntries: deps.Obs.Hist(obs.HistReaddirEntries),
	}
	r.stall.cond.L = &r.stall.mu
	for _, name := range cfg.Nodes {
		n := &node{name: name, addr: name + "/pacon-" + cfg.Name, queue: mq.NewQueue[Op](), tel: deps.Obs.Node(name),
			inflight: inflight{bound: cfg.AtRiskBound, paths: make(map[string]pending), claims: make(map[uint64]struct{})}}
		n.inflight.cond.L = &n.inflight.mu
		n.cache = memcache.NewServer(n.addr, memcache.ServerConfig{
			CapacityBytes: cfg.CacheCapacityBytes,
			Model:         cfg.Model,
			Workers:       cfg.Model.CacheWorkers,
			Row:           entryRow(cfg.SmallFileThreshold),
			Load:          r.loader(r.newBackend(name)),
			Current:       r.current,
		})
		deps.Bus.Register(n.addr, n.cache.Service())
		r.ring.Add(n.addr)
		r.nodes = append(r.nodes, n)
		r.byName[name] = n
	}

	// Verify the workspace and seed its metadata into the cache.
	backend := r.newBackend(cfg.Nodes[0])
	wsStat, _, err := backend.Stat(0, cfg.Workspace)
	if err != nil {
		r.shutdownServers()
		return nil, fsapi.WrapPath("region-init", cfg.Workspace, err)
	}
	if !wsStat.IsDir() {
		r.shutdownServers()
		return nil, fsapi.WrapPath("region-init", cfg.Workspace, fsapi.ErrNotDir)
	}
	cache := memcache.NewClient(rpc.NewCaller(deps.Bus, cfg.Model, cfg.Nodes[0]), r.ring)
	if _, err := seedRoot(cache, 0, cfg.Workspace, wsStat); err != nil {
		r.shutdownServers()
		return nil, err
	}

	r.registerMetrics()

	// One commit process (queue subscriber) per node.
	for _, n := range r.nodes {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.newCommitter(n, r.newBackend(n.name)).run()
		}()
	}
	return r, nil
}

// registerMetrics exports the region's counters and gauges through the
// observability registry (no-op when observability is disabled). The
// readers run at scrape time, so exposition always reflects live state.
func (r *Region) registerMetrics() {
	o := r.obs
	if o == nil {
		return
	}
	o.RegisterCounter("ops_committed", r.committed.Load)
	o.RegisterCounter("ops_discarded", r.discarded.Load)
	o.RegisterCounter("ops_retried", r.retries.Load)
	o.RegisterCounter("ops_dropped", r.dropped.Load)
	o.RegisterCounter("evict_rounds", r.evictions.Load)
	o.RegisterCounter("evicted_keys", r.evictedKeys.Load)
	o.RegisterCounter("ops_coalesced", r.coalesced.Load)
	o.RegisterCounter("commit_cache_rpcs", r.cacheRPCs.Load)
	o.RegisterCounter("commit_backend_rpcs", r.backendRPCs.Load)
	o.RegisterCounter("batch_rpcs", r.batchRPCs.Load)
	o.RegisterCounter("batched_ops", r.batchedOps.Load)
	o.RegisterCounter("batch_fallbacks", r.batchFallbacks.Load)
	o.RegisterCounter("barrier_scoped", r.barriersScoped.Load)
	o.RegisterCounter("barrier_full", r.barriersFull.Load)
	o.RegisterCounter("cache_warm", r.cacheWarms.Load)
	o.RegisterCounter("ops_dropped_"+dropReasonRetryBudget, r.droppedRetry.Load)
	o.RegisterCounter("ops_dropped_"+dropReasonKindConflict, r.droppedConflict.Load)
	o.RegisterCounter("ops_dropped_"+dropReasonBackendError, r.droppedBackend.Load)

	o.RegisterGauge("queue_depth", func() int64 { return int64(r.QueueDepth()) })
	o.RegisterGauge("at_risk_ops", func() int64 { return int64(r.atRiskOps()) })
	o.RegisterGauge("parked_ops", func() int64 { return int64(r.parkedOps()) })
	o.RegisterGauge("max_staleness_ns", r.MaxStaleness)
	o.RegisterGauge("max_commit_lag_ns", r.maxLagNS.Load)
	o.RegisterGauge("queue_head_age_ns", r.QueueHeadAge)
	for _, n := range r.nodes {
		o.RegisterGauge("queue_oldest_unacked_ns_"+n.name, func() int64 { return age(n.inflight.oldest("")) })
		o.RegisterGauge("at_risk_ops_"+n.name, func() int64 { return int64(n.inflight.atRisk()) })
	}
	o.RegisterGauge("cache_items", func() int64 { return r.CacheStats().Items })
	o.RegisterGauge("cache_used_bytes", func() int64 { return r.CacheStats().UsedBytes })
	o.RegisterGauge("dirty_keys", func() int64 {
		dirty, _ := r.headerCounts()
		return dirty
	})
	o.RegisterGauge("removed_keys", func() int64 {
		_, removed := r.headerCounts()
		return removed
	})
	if cap := r.cfg.CacheCapacityBytes; cap > 0 {
		// Eviction watermark: per-mille of cache capacity in use — the
		// pressure level at which region round-robin eviction starts.
		total := cap * int64(len(r.cfg.Nodes))
		o.RegisterGauge("evict_watermark_permille", func() int64 {
			return r.CacheStats().UsedBytes * 1000 / total
		})
	}
	// Cache-ring load skew: imbalance of ops served per cache server. A
	// sustained max/mean well above 1000 means the hash ring's keys are
	// not spreading — the cache-side face of a path hotspot.
	o.RegisterGauge("hot_cache_load_maxmean_permille", func() int64 {
		return r.cacheLoadSkew().MaxMeanPermille
	})
	o.RegisterGauge("hot_cache_load_cv_permille", func() int64 {
		return r.cacheLoadSkew().CVPermille
	})
}

// cacheLoadSkew computes load-imbalance stats over the region's cache
// servers (ops served per server).
func (r *Region) cacheLoadSkew() obs.SkewStats {
	loads := make([]int64, 0, len(r.nodes))
	for _, n := range r.nodes {
		loads = append(loads, n.cache.ServedOps())
	}
	return obs.Skew(loads)
}

// headerCounts counts the dirty entries and the removed markers across the
// region's cache servers. A value that does not decode counts as neither.
func (r *Region) headerCounts() (dirty, removed int64) {
	for _, n := range r.nodes {
		n.cache.Scan(func(_ string, raw []byte) bool {
			v, err := viewCacheVal(raw)
			if err == nil && v.dirty {
				dirty++
			}
			if err == nil && v.removed {
				removed++
			}
			return true
		})
	}
	return dirty, removed
}

// newBackend builds a backend via deps and records it. The region keeps
// every backend it hands out because the DFS layer deliberately trusts
// Pacon for consistency: internal DFS clients cache directories under
// long TTLs, so after an rmdir or rename only a region-wide fan-out (not
// just the calling client's own drop) stops the other nodes from
// resolving paths through the unlinked directories.
func (r *Region) newBackend(node string) Backend {
	b := r.deps.NewBackend(node)
	r.backendsMu.Lock()
	r.backends = append(r.backends, b)
	r.backendsMu.Unlock()
	return b
}

// invalidateBackendSubtrees drops cached lookup state for root on every
// backend the region has built. A backend's Stat never answers from that
// state, but its path resolution does: a cached directory that was just
// unlinked would still pass the traversal check for a path under it.
func (r *Region) invalidateBackendSubtrees(root string) {
	r.backendsMu.Lock()
	bs := append([]Backend(nil), r.backends...)
	r.backendsMu.Unlock()
	for _, b := range bs {
		b.InvalidateSubtree(root)
	}
}

func (r *Region) shutdownServers() {
	for _, n := range r.nodes {
		r.deps.Bus.Unregister(n.addr)
	}
}

// Stats returns commit-module counters.
func (r *Region) Stats() RegionStats {
	return RegionStats{
		Committed:      r.committed.Load(),
		Discarded:      r.discarded.Load(),
		Retries:        r.retries.Load(),
		Dropped:        r.dropped.Load(),
		Evictions:      r.evictions.Load(),
		EvictedKeys:    r.evictedKeys.Load(),
		Coalesced:      r.coalesced.Load(),
		CacheRPCs:      r.cacheRPCs.Load(),
		BackendRPCs:    r.backendRPCs.Load(),
		BatchRPCs:      r.batchRPCs.Load(),
		BatchedOps:     r.batchedOps.Load(),
		BatchFallbacks: r.batchFallbacks.Load(),

		BarriersScoped: r.barriersScoped.Load(),
		BarriersFull:   r.barriersFull.Load(),
		CacheWarms:     r.cacheWarms.Load(),
	}
}

// CacheStats sums the region's cache servers' counters, as they stand
// when it is asked.
func (r *Region) CacheStats() memcache.Stats {
	var total memcache.Stats
	for _, n := range r.nodes {
		st := n.cache.Stats()
		total.Items += st.Items
		total.UsedBytes += st.UsedBytes
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.ServedOps += st.ServedOps
	}
	return total
}

// perNode sums count over the region's nodes, when a region-wide count is read.
func (r *Region) perNode(count func(*node) int) int {
	total := 0
	for _, n := range r.nodes {
		total += count(n)
	}
	return total
}

// QueueDepth reports the messages queued across the nodes' commit
// queues: uncommitted operations plus any barrier markers not yet reached.
func (r *Region) QueueDepth() int { return r.perNode(func(n *node) int { return n.queue.Len() }) }

// atRiskOps sums the nodes' at-risk counts (inflight.atRisk): what the DFS
// would never see if every node died now.
func (r *Region) atRiskOps() int { return r.perNode(func(n *node) int { return n.inflight.atRisk() }) }

// parkedOps sums the nodes' parked ops (pendingSet).
func (r *Region) parkedOps() int {
	return r.perNode(func(n *node) int { return int(n.inflight.parked.Load()) })
}

// Merge attaches another region read-only (§III.D.4): this region's
// clients can consistently read other's workspace through other's
// distributed cache. Writes into the merged workspace are rejected.
func (r *Region) Merge(other *Region) {
	r.mergedMu.Lock()
	defer r.mergedMu.Unlock()
	r.merged = append(r.merged, remoteRegion{
		workspace: other.cfg.Workspace,
		ring:      other.ring,
		perm:      other.cfg.Perm,
	})
}

// mergedFor finds the merged peer covering path, if any.
func (r *Region) mergedFor(path string) (remoteRegion, bool) {
	r.mergedMu.RLock()
	defer r.mergedMu.RUnlock()
	for _, m := range r.merged {
		if namespace.IsUnder(path, m.workspace) {
			return m, true
		}
	}
	return remoteRegion{}, false
}

// addRemoving registers an active rmdir target; commit processes discard
// creations under it (§III.D.1).
func (r *Region) addRemoving(p string) {
	r.removingMu.Lock()
	defer r.removingMu.Unlock()
	r.removing[p]++
}

func (r *Region) delRemoving(p string) {
	r.removingMu.Lock()
	defer r.removingMu.Unlock()
	if r.removing[p]--; r.removing[p] <= 0 {
		delete(r.removing, p)
	}
}

func (r *Region) isRemoving(p string) bool {
	r.removingMu.RLock()
	defer r.removingMu.RUnlock()
	for target := range r.removing {
		if namespace.IsUnder(p, target) {
			return true
		}
	}
	return false
}

// syncBarrier runs the barrier protocol up to the drain point: it opens
// an epoch, pushes one marker into the participating node queues, and
// waits until those commit processes have applied all earlier
// operations. The caller performs its dependent operation and then
// calls barrier.Release.
//
// scope, when non-empty, is the dependent operation's subtree: only
// nodes whose in-flight table shows a pending op under it participate —
// the rest are never drained, never even see the marker
// (barrier.SetExpect shrinks the epoch to the participant count). An
// op pushed into a skipped queue after the participant snapshot is
// concurrent with the barrier and owes it nothing, exactly like an op
// racing the marker push in the full protocol. Readdir and rmdir scope
// to their target, rename to the deepest directory holding both its
// paths (namespace.CommonDir). Scope "" (Drain, Checkpoint, Restore —
// the whole region) drains every queue.
func (r *Region) syncBarrier(at vclock.Time, scope string) (epoch uint64, drain vclock.Time, err error) {
	var start int64
	if r.barrierWait != nil {
		start = time.Now().UnixNano()
	}
	epoch, err = r.barrier.Begin()
	if err != nil {
		return 0, at, err
	}
	participants := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		if scope == "" || n.inflight.hasUnder(scope) {
			participants = append(participants, n)
		}
	}
	if len(participants) < len(r.nodes) {
		r.barriersScoped.Add(1)
	} else {
		r.barriersFull.Add(1)
	}
	// The initiator owns the epoch exclusively between Begin and the
	// marker pushes, so shrinking the expectation here cannot race an
	// arrival.
	r.barrier.SetExpect(epoch, len(participants))
	for _, n := range participants {
		if err := n.queue.PushBarrier(epoch); err != nil {
			r.barrier.Release(epoch, at)
			return 0, at, err
		}
	}
	drain, err = r.barrier.AwaitArrivals(epoch)
	if err != nil {
		return 0, at, err
	}
	if r.barrierWait != nil {
		r.barrierWait.RecordN(time.Now().UnixNano() - start)
	}
	return epoch, vclock.Max(drain, at), nil
}

// drainPath returns once no op on p is queued, parked or in flight on any
// node. It waits on the nodes' tables for the commit processes, and drives
// none unless an op on p parks: a parked op is retried only when its queue
// next moves, so the crossing moves it at once with a barrier scoped to p.
func (r *Region) drainPath(at vclock.Time, p string) (vclock.Time, error) {
	for _, n := range r.nodes {
		for parked, err := n.inflight.drained(p); parked || err != nil; parked, err = n.inflight.drained(p) {
			if err == nil {
				at, err = r.flush(at, p)
			}
			if err != nil {
				return at, err
			}
		}
	}
	return at, nil
}

// flush runs one barrier scoped to scope ("": every queue) and releases it
// at once: every op queued or parked under scope when it began has reached
// its terminal on return.
func (r *Region) flush(at vclock.Time, scope string) (vclock.Time, error) {
	epoch, drain, err := r.syncBarrier(at, scope)
	if err != nil {
		return at, err
	}
	r.barrier.Release(epoch, drain)
	return drain, nil
}

// Drain forces all queued operations to the DFS and returns when the
// region is globally consistent (every backup copy updated). Used by
// tests, checkpointing and orderly shutdown.
func (r *Region) Drain(at vclock.Time) (vclock.Time, error) { return r.flush(at, "") }

// Close drains the queues, stops the commit processes and cache servers,
// and turns away every crossing and ack waiting on a node's table with
// ErrClosed.
func (r *Region) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	for _, n := range r.nodes {
		n.queue.Close()
		n.inflight.close()
	}
	// Close the barrier before waiting: a commit process parked in
	// AwaitRelease (in-flight sync op at shutdown) must unblock, or
	// wg.Wait would hang.
	r.barrier.Close()
	r.wg.Wait()
	r.shutdownServers()
	return nil
}
