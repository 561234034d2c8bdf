// Package obs is the dependency-free observability layer for the pacon
// commit pipeline: span tracing through the queue/coalesce/barrier/apply
// stages, log2 latency histograms, counters and gauges, hotspot
// telemetry (heavy-hitter path sketches, subtree load attribution, and
// skew gauges — hotspot.go), and a Prometheus-text exposition handler.
// The package imports only the standard library plus the leaf
// internal/namespace package (for ancestor iteration) so every other
// layer can use it without cycles, and every entry point is nil-safe: a
// nil *Obs (observability disabled) costs call sites exactly one branch.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram names for the pipeline stages every deployment gets. The
// registry is open — callers may record under any name — but the shell,
// the flight dump and DESIGN.md refer to these.
const (
	// HistClientOp is client-visible op latency: the synchronous part
	// of a client call (permission check + cache write + enqueue).
	HistClientOp = "client_op"
	// HistQueueWait is queue residency: enqueue to commit-process dequeue.
	HistQueueWait = "queue_wait"
	// HistBarrierWait is time a strong op spends in the sync barrier.
	HistBarrierWait = "barrier_wait"
	// HistCacheRPC is one metadata-cache round trip at the transport seam.
	HistCacheRPC = "cache_rpc"
	// HistDFSRPC is one backend (MDS/data server) round trip.
	HistDFSRPC = "dfs_rpc"
	// HistCommitLag is enqueue to durable apply on the DFS: how far the
	// backup copy trails the primary.
	HistCommitLag = "commit_lag"
	// HistReaddirEntries is the entry count per workspace readdir — a
	// size distribution, not a latency; it sizes the listings the read
	// path's cache warming fans out over.
	HistReaddirEntries = "readdir_entries"
)

// DefaultSlowSpan is the slow-op log threshold until overridden.
const DefaultSlowSpan = 20 * time.Millisecond

// Obs is one region's (or process's) observability registry: the
// per-node telemetry handles (node.go), named histograms, and registered
// counter/gauge readers, all exposed together through WriteProm/Handler
// and the shell snapshot.
type Obs struct {
	// nodes is the one per-node registry: name -> *Node, for client nodes
	// and MDS addresses alike. Lookup is lock-free once a name is
	// known; every reader ranges over it through nodeList.
	nodes sync.Map

	// The pipeline histograms the op path and the RPC seam record into,
	// resolved once in New so neither takes mu or probes hists by name.
	clientOp, queueWait, commitLag, cacheRPC, dfsRPC *Histogram

	rpcError atomic.Pointer[Histogram] // see rpcErrorHist

	slowNanos atomic.Int64

	// Span allocation and the tail sampler (sampler.go): 1-in-N head
	// sampling plus keep-at-terminal for slow/failed/parked ops.
	spanSeq   atomic.Uint64
	sampleN   atomic.Int64
	sampleSeq atomic.Uint64

	// Self-maintained counters, registered in New().
	cacheRPCErrs atomic.Int64
	dfsRPCErrs   atomic.Int64
	spansSampled atomic.Int64
	tailKept     atomic.Int64

	// The one span store (sampler.go): active sampled-span buffers and
	// the kept-span overwrite ring.
	activeMu sync.Mutex
	active   map[uint64][]Event
	recentMu sync.Mutex
	recent   []CritPath
	recentAt int

	// Flight recorder (flight.go).
	flightSeq  atomic.Int64
	flightLast atomic.Int64
	flightMu   sync.Mutex
	flightDir  string
	lastFlight []byte

	mu       sync.Mutex
	hists    map[string]*Histogram
	counters map[string]func() int64
	gauges   map[string]func() int64
}

// New returns an enabled registry.
func New() *Obs {
	o := &Obs{
		hists:    make(map[string]*Histogram),
		counters: make(map[string]func() int64),
		gauges:   make(map[string]func() int64),
	}
	o.slowNanos.Store(int64(DefaultSlowSpan))
	o.sampleN.Store(DefaultSampleN)
	// Pre-create the pipeline histograms so /metrics shows the full
	// stage inventory from the first scrape.
	for _, name := range []string{
		HistClientOp, HistQueueWait, HistBarrierWait,
		HistCacheRPC, HistDFSRPC, HistCommitLag, HistReaddirEntries,
	} {
		o.hists[name] = NewHistogram()
	}
	o.clientOp, o.queueWait, o.commitLag = o.hists[HistClientOp], o.hists[HistQueueWait], o.hists[HistCommitLag]
	o.cacheRPC, o.dfsRPC = o.hists[HistCacheRPC], o.hists[HistDFSRPC]
	// Self-maintained counters: failed RPC round trips by service kind,
	// and the tracing/flight bookkeeping.
	o.counters["cache_rpc_errors"] = o.cacheRPCErrs.Load
	o.counters["dfs_rpc_errors"] = o.dfsRPCErrs.Load
	o.counters["spans_sampled"] = o.spansSampled.Load
	o.counters["spans_tail_kept"] = o.tailKept.Load
	o.counters["flight_dumps"] = o.flightSeq.Load
	// Hotspot self-metrics (hotspot.go): sketch residency and the
	// region-level skew of recorded ops across nodes.
	o.counters["hot_sketch_evictions"] = o.hotEvictions
	o.gauges["hot_paths_tracked"] = o.hotPathsTracked
	o.gauges["hot_subtrees_tracked"] = o.hotSubtreesTracked
	o.gauges["hot_top_path_share_permille"] = o.topPathSharePermille
	o.gauges["hot_node_ops_maxmean_permille"] = func() int64 { return o.nodeOpSkew().MaxMeanPermille }
	o.gauges["hot_node_ops_cv_permille"] = func() int64 { return o.nodeOpSkew().CVPermille }
	return o
}

// Hist returns (creating on first use) the named histogram. A nil
// registry returns a nil histogram, whose Record is a no-op.
func (o *Obs) Hist(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.hists[name]
	if !ok {
		h = NewHistogram()
		o.hists[name] = h
	}
	return h
}

// ObserveRPC implements the transport instrumentation hook (see
// rpc.RPCObserver): it classifies the round trip by service address —
// pacon metadata-cache servers register under "<node>/pacon-<region>",
// everything else (MDS, data servers) is the DFS — and records its
// wall-clock duration. Errored round trips are recorded too: a slow
// failure is still time the pipeline spent waiting.
func (o *Obs) ObserveRPC(addr, method string, d time.Duration, err error) {
	if o == nil {
		return
	}
	if strings.Contains(addr, "/pacon-") {
		o.cacheRPC.Record(d)
		if err != nil {
			o.cacheRPCErrs.Add(1)
		}
	} else {
		o.dfsRPC.Record(d)
		if err != nil {
			o.dfsRPCErrs.Add(1)
		}
		if strings.Contains(addr, "/mds") {
			o.node(addr).observeRPC(d, err)
		}
	}
	if err != nil {
		o.rpcErrorHist().Record(d)
	}
}

// rpcErrorHist returns the rpc_error histogram, registering it at the
// first failed round trip so it shows in the exposition only once there
// is something to show.
func (o *Obs) rpcErrorHist() *Histogram {
	if h := o.rpcError.Load(); h != nil {
		return h
	}
	h := o.Hist("rpc_error")
	o.rpcError.Store(h)
	return h
}

// ObserveServerSpan implements the server-side trace hook (see
// rpc.SpanObserver): a service that handled an RPC carrying a sampled
// span's trace context records recv/done events, under the *service
// address* as their node, into the span's active buffer — so the span's
// assembled timeline shows its cross-node hops.
func (o *Obs) ObserveServerSpan(span uint64, hop uint8, addr, method string, start time.Time, d time.Duration, err error) {
	if o == nil || span == 0 {
		return
	}
	note := ""
	if err != nil {
		note = err.Error()
	}
	o.bufferEvent(Event{Span: span, Stage: StageServerRecv, Node: addr, Op: method, Wall: start.UnixNano()})
	o.bufferEvent(Event{Span: span, Stage: StageServerDone, Node: addr, Op: method, Wall: start.Add(d).UnixNano(), Note: note})
}

// RegisterCounter registers a monotonically non-decreasing reader (e.g.
// a RegionStats field). Re-registering a name replaces the reader.
func (o *Obs) RegisterCounter(name string, fn func() int64) {
	if o == nil || fn == nil {
		return
	}
	o.mu.Lock()
	o.counters[name] = fn
	o.mu.Unlock()
}

// RegisterGauge registers an instantaneous-value reader (queue depth,
// parked ops, dirty keys...). Re-registering a name replaces the reader.
func (o *Obs) RegisterGauge(name string, fn func() int64) {
	if o == nil || fn == nil {
		return
	}
	o.mu.Lock()
	o.gauges[name] = fn
	o.mu.Unlock()
}

// SetSlowThreshold sets the slow-op log threshold (<=0 restores the
// default).
func (o *Obs) SetSlowThreshold(d time.Duration) {
	if o == nil {
		return
	}
	if d <= 0 {
		d = DefaultSlowSpan
	}
	o.slowNanos.Store(int64(d))
}

// SlowThreshold returns the current slow-op threshold.
func (o *Obs) SlowThreshold() time.Duration {
	if o == nil {
		return DefaultSlowSpan
	}
	return time.Duration(o.slowNanos.Load())
}

// HistQuantiles digests every histogram with recorded samples into
// {count, p50, p95, p99} — the per-stage block bench embeds in its
// BENCH json.
func (o *Obs) HistQuantiles() map[string]Quantiles {
	out := make(map[string]Quantiles)
	for name, s := range o.histSnapshots() {
		if s.Count > 0 {
			out[name] = s.Quantiles()
		}
	}
	return out
}

// histSnapshots snapshots every histogram under a short lock.
func (o *Obs) histSnapshots() map[string]HistSnapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	hists := make(map[string]*Histogram, len(o.hists))
	for name, h := range o.hists {
		hists[name] = h
	}
	o.mu.Unlock()
	out := make(map[string]HistSnapshot, len(hists))
	for name, h := range hists {
		out[name] = h.Snapshot()
	}
	return out
}

// counterValues reads every registered counter.
func (o *Obs) counterValues() map[string]int64 {
	return readFns(o, func() map[string]func() int64 { return o.counters })
}

// gaugeValues reads every registered gauge.
func (o *Obs) gaugeValues() map[string]int64 {
	return readFns(o, func() map[string]func() int64 { return o.gauges })
}

// readFns copies a reader map under the lock, then invokes the readers
// outside it (readers may grab their own locks, e.g. queue mutexes).
func readFns(o *Obs, pick func() map[string]func() int64) map[string]int64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	fns := make(map[string]func() int64, 8)
	for name, fn := range pick() {
		fns[name] = fn
	}
	o.mu.Unlock()
	out := make(map[string]int64, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// Summary renders the live snapshot for `paconfs stats`: gauges,
// counters, then per-stage latency quantiles, sorted by name.
func (o *Obs) Summary() string {
	if o == nil {
		return "observability disabled\n"
	}
	var b strings.Builder
	if g := o.gaugeValues(); len(g) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(g) {
			fmt.Fprintf(&b, "  %-24s %d\n", name, g[name])
		}
	}
	if c := o.counterValues(); len(c) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(c) {
			fmt.Fprintf(&b, "  %-24s %d\n", name, c[name])
		}
	}
	snaps := o.histSnapshots()
	recorded := make(map[string]HistSnapshot)
	for name, s := range snaps {
		if s.Count > 0 {
			recorded[name] = s
		}
	}
	if len(recorded) > 0 {
		b.WriteString("latency (wall):\n")
		for _, name := range sortedKeys(recorded) {
			s := recorded[name]
			q := s.Quantiles()
			fmt.Fprintf(&b, "  %-14s n=%-8d p50<%-12v p95<%-12v p99<%-12v mean=%v\n",
				name, q.Count,
				time.Duration(q.P50), time.Duration(q.P95), time.Duration(q.P99),
				time.Duration(int64(s.Mean())))
		}
	}
	if b.Len() == 0 {
		return "no observability data recorded yet\n"
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
