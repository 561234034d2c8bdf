package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Tracing lives entirely in this package: spans are recorded around the
// harness's calls into each layer (client API, rpc.Network.Invoke, the
// DFS Backend), never inside the program. A span's parent is the client
// op open on the same goroutine, else the synthetic root core.commit.
//
// "Same goroutine" is decided by OS thread: a load goroutine locks
// itself to a thread while it is traced and the wrappers compare
// gettid() (≈0.1 µs) against the load goroutines' threads. Parsing the
// goroutine id out of runtime.Stack was tried first; it costs 20–30 µs
// on these stacks and slowed a traced stat_hot ten-fold.
//
// Every span is aggregated; the first keptPerBuffer of each buffer are
// also kept verbatim for the trace file, which bounds memory at
// millions of ops per run.

const (
	keptPerBuffer = 4096
	rootSpanID    = 1 // the synthetic core.commit span
	rootShards    = 8 // buffers for spans under the root, picked by thread id
)

// hist is a log-linear histogram: 16 sub-buckets per power of two, so a
// reported quantile is within ±3 % of the true one.
type hist struct {
	n int64
	b [64 * 16]uint32
}

func (h *hist) add(v int64) {
	if v < 1 {
		v = 1
	}
	e := bits.Len64(uint64(v)) - 1
	sub := 0
	if e >= 4 {
		sub = int(v>>(e-4)) & 15
	} else {
		sub = int(v<<(4-e)) & 15
	}
	h.b[e*16+sub]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	var seen int64
	for i, c := range h.b {
		seen += int64(c)
		if seen > rank {
			e, sub := i/16, i%16
			lo := float64(uint64(1)<<e) * (1 + float64(sub)/16)
			return lo * (1 + 1.0/32)
		}
	}
	return 0
}

// span is one recorded interval. Times are nanoseconds since the tracer
// was created; Op groups the spans of one client call (0 = under root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
}

// agg accumulates every span of one name in one buffer. self is the
// duration minus child spans; extra a per-span quantity (bytes for rpc
// spans, ops or keys for batched dfs calls).
type agg struct {
	n, dur, self, extra int64
	h                   hist
}

func (a *agg) merge(o *agg) {
	a.n += o.n
	a.dur += o.dur
	a.self += o.self
	a.extra += o.extra
	a.h.merge(&o.h)
}

// spanBuf holds finished spans: all of them aggregated by name, the
// first keptPerBuffer verbatim.
type spanBuf struct {
	idx, seq uint64
	kept     []span
	aggs     map[string]*agg
}

func (b *spanBuf) nextID() uint64 {
	b.seq++
	return b.idx | b.seq
}

func (b *spanBuf) record(s span, self, extra int64) {
	a := b.aggs[s.Name]
	if a == nil {
		a = &agg{}
		b.aggs[s.Name] = a
	}
	a.n++
	a.dur += s.End - s.Start
	a.self += self
	a.extra += extra
	a.h.add(s.End - s.Start)
	if len(b.kept) < keptPerBuffer {
		b.kept = append(b.kept, s)
	}
}

type frame struct {
	name         string
	start, child int64
	id, op       uint64
}

// clientBuf is one load goroutine's spans. Only that goroutine touches
// it while tracing is on, so it needs no lock; tid is the thread the
// goroutine is locked to, 0 between epochs.
type clientBuf struct {
	t   *tracer
	tid atomic.Int64
	spanBuf
	stack []frame
}

// rootBuf takes the spans of every other goroutine: the commit
// processes and the helper goroutines a batched read fans out on.
type rootBuf struct {
	mu sync.Mutex
	spanBuf
}

type tracer struct {
	on      atomic.Bool
	base    time.Time
	clients [clientCount]clientBuf
	roots   [rootShards]rootBuf
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	for i := range t.clients {
		t.clients[i].t = t
		t.clients[i].spanBuf = spanBuf{idx: uint64(i+1) << 40, aggs: map[string]*agg{}}
	}
	for i := range t.roots {
		t.roots[i].spanBuf = spanBuf{idx: uint64(clientCount+i+1) << 40, aggs: map[string]*agg{}}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// attach pins the calling load goroutine to its thread and publishes the
// thread id; detach undoes both.
func (c *clientBuf) attach() {
	runtime.LockOSThread()
	c.tid.Store(int64(syscall.Gettid()))
}

func (c *clientBuf) detach() {
	c.tid.Store(0)
	runtime.UnlockOSThread()
}

func (c *clientBuf) push(name string, op uint64, start int64) {
	if op == 0 && len(c.stack) > 0 {
		op = c.stack[len(c.stack)-1].op
	}
	c.stack = append(c.stack, frame{name: name, start: start, id: c.nextID(), op: op})
}

func (c *clientBuf) pop(extra int64) {
	end := c.t.now()
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	dur := end - f.start
	parent := uint64(rootSpanID)
	if n := len(c.stack); n > 0 {
		c.stack[n-1].child += dur
		parent = c.stack[n-1].id
	}
	c.record(span{Name: f.name, Start: f.start, End: end, ID: f.id, Parent: parent, Op: f.op}, dur-f.child, extra)
}

// openSpan is what a wrapper holds between enter and exit.
type openSpan struct {
	c     *clientBuf // set when the caller is a load goroutine
	r     *rootBuf   // set otherwise; both nil when tracing is off
	name  string
	start int64
}

// enter opens a span for a wrapper call.
func (t *tracer) enter(name string) openSpan {
	if t == nil || !t.on.Load() {
		return openSpan{}
	}
	start := t.now()
	tid := int64(syscall.Gettid())
	for i := range t.clients {
		if c := &t.clients[i]; c.tid.Load() == tid {
			c.push(name, 0, start)
			return openSpan{c: c}
		}
	}
	return openSpan{r: &t.roots[tid%rootShards], name: name, start: start}
}

// exit closes the span; extra is summed into the span name's aggregate.
func (o openSpan) exit(t *tracer, extra int64) {
	switch {
	case o.c != nil:
		o.c.pop(extra)
	case o.r != nil:
		end := t.now()
		o.r.mu.Lock()
		o.r.record(span{Name: o.name, Start: o.start, End: end, ID: o.r.nextID(), Parent: rootSpanID}, end-o.start, extra)
		o.r.mu.Unlock()
	}
}

// totals merges the aggregates of the client buffers (client=true) or
// the root buffers by span name. Call only after the traced region is
// closed, when its goroutines have exited.
func (t *tracer) totals(client bool) map[string]*agg {
	out := make(map[string]*agg)
	add := func(b *spanBuf) {
		for name, a := range b.aggs {
			if out[name] == nil {
				out[name] = &agg{}
			}
			out[name].merge(a)
		}
	}
	if client {
		for i := range t.clients {
			add(&t.clients[i].spanBuf)
		}
	} else {
		for i := range t.roots {
			add(&t.roots[i].spanBuf)
		}
	}
	return out
}

// sumPrefix folds the aggregates whose name starts with prefix, over
// any number of totals maps.
func sumPrefix(prefix string, totals ...map[string]*agg) *agg {
	out := &agg{}
	for _, tot := range totals {
		for name, a := range tot {
			if strings.HasPrefix(name, prefix) {
				out.merge(a)
			}
		}
	}
	return out
}

// traceLayers are the layers of the self-time table, by span prefix.
var traceLayers = []struct{ layer, prefix string }{
	{"core", "client."}, {"rpc.cache", "rpc.cache."}, {"rpc.dfs", "rpc.dfs."}, {"dfs", "dfs."},
}

func layerOf(name string) string {
	for _, l := range traceLayers {
		if strings.HasPrefix(name, l.prefix) {
			return l.layer
		}
	}
	return "core.commit"
}

type traceLayerRow struct {
	Layer string `json:"layer"`
	// Under says whose time the row is: spans nested in client ops, or
	// spans under the root (commit processes and fan-out helpers).
	Under  string  `json:"under"`
	Spans  int64   `json:"spans"`
	SelfMS float64 `json:"self_ms"`
	// ShareOfMedianOp is the layer's self time inside the client ops of
	// the middle duration decile, as a share of those ops' duration.
	ShareOfMedianOp float64 `json:"share_of_median_client_op,omitempty"`
}

type traceNameRow struct {
	Name  string  `json:"name"`
	Under string  `json:"under"`
	Count int64   `json:"count"`
	P50US float64 `json:"p50_us"`
	P95US float64 `json:"p95_us"`
}

type traceFile struct {
	Workload         string          `json:"workload"`
	Seed             int64           `json:"seed"`
	Epochs           int             `json:"epochs"`
	SpansRecorded    int64           `json:"spans_recorded"`
	SpansKept        int             `json:"spans_kept"`
	MedianClientOpUS float64         `json:"median_client_op_us"`
	Layers           []traceLayerRow `json:"layers"`
	Names            []traceNameRow  `json:"names"`
	Spans            []span          `json:"spans"`
}

// report builds the trace file: the self-time table per layer, the
// per-name table and the kept spans under the synthetic root.
func (t *tracer) report(workload string, seed int64, epochs int) traceFile {
	tf := traceFile{Workload: workload, Seed: seed, Epochs: epochs}
	sides := []struct {
		under string
		tot   map[string]*agg
	}{{"client", t.totals(true)}, {"core.commit", t.totals(false)}}
	rows := map[string]int{} // index of each layer's client-side row, for the shares below
	for _, side := range sides {
		for name, a := range side.tot {
			tf.SpansRecorded += a.n
			tf.Names = append(tf.Names, traceNameRow{Name: name, Under: side.under, Count: a.n,
				P50US: a.h.quantile(0.50) / 1e3, P95US: a.h.quantile(0.95) / 1e3})
		}
		for _, l := range traceLayers {
			a := sumPrefix(l.prefix, side.tot)
			if a.n == 0 {
				continue
			}
			self := a.self
			if side.under == "core.commit" && l.layer == "dfs" {
				// Root spans do not nest, but every DFS round trip made
				// there is made inside a Backend call.
				self -= sumPrefix("rpc.dfs.", side.tot).dur
			}
			tf.Layers = append(tf.Layers, traceLayerRow{Layer: l.layer, Under: side.under, Spans: a.n, SelfMS: float64(self) / 1e6})
			if side.under == "client" {
				rows[l.layer] = len(tf.Layers) - 1
			}
		}
	}
	sort.Slice(tf.Names, func(i, j int) bool {
		if tf.Names[i].Under != tf.Names[j].Under {
			return tf.Names[i].Under < tf.Names[j].Under
		}
		return tf.Names[i].Name < tf.Names[j].Name
	})

	tf.Spans = append(tf.Spans, span{Name: "core.commit", Start: 0, End: t.now(), ID: rootSpanID})
	type opCost struct {
		dur   int64
		layer map[string]int64
	}
	var ops []*opCost
	for i := range t.clients {
		kept := t.clients[i].kept
		tf.Spans = append(tf.Spans, kept...)
		// A client op's children finish, and are kept, before it: walk
		// the buffer charging self time to layers until each client
		// span closes its op.
		childDur := map[uint64]int64{}
		cur := &opCost{layer: map[string]int64{}}
		for _, s := range kept {
			d := s.End - s.Start
			childDur[s.Parent] += d
			cur.layer[layerOf(s.Name)] += d - childDur[s.ID]
			if s.Parent == rootSpanID {
				cur.dur = d
				ops = append(ops, cur)
				cur = &opCost{layer: map[string]int64{}}
				clear(childDur)
			}
		}
	}
	for i := range t.roots {
		tf.Spans = append(tf.Spans, t.roots[i].kept...)
	}
	tf.SpansKept = len(tf.Spans)
	sort.Slice(ops, func(i, j int) bool { return ops[i].dur < ops[j].dur })
	if n := len(ops); n > 0 {
		tf.MedianClientOpUS = float64(ops[n/2].dur) / 1e3
		var total int64
		share := map[string]int64{}
		for _, o := range ops[n*45/100 : n*55/100+1] {
			total += o.dur
			for l, v := range o.layer {
				share[l] += v
			}
		}
		for l, v := range share {
			if i, ok := rows[l]; ok && total > 0 {
				tf.Layers[i].ShareOfMedianOp = float64(v) / float64(total)
			}
		}
	}
	return tf
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// tracedNet wraps the deployment's rpc.Network so every round trip —
// the clients' and the commit processes' — becomes an rpc.<cache|dfs>.
// <method> span. Embedding the interface promotes Register/Unregister
// and deliberately hides InvokeTrace: callers fall back to Invoke.
type tracedNet struct {
	rpc.Network
	t     *tracer
	names [2]sync.Map // method -> span name, for cache and dfs addresses
}

func (n *tracedNet) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	sp := n.t.enter(n.spanName(addr, method))
	done, resp, err := n.Network.Invoke(addr, method, at, body)
	sp.exit(n.t, int64(len(body)+len(resp)))
	return done, resp, err
}

func (n *tracedNet) spanName(addr, method string) string {
	class, prefix := 0, "rpc.dfs."
	if strings.Contains(addr, "/pacon-") {
		class, prefix = 1, "rpc.cache."
	}
	if v, ok := n.names[class].Load(method); ok {
		return v.(string)
	}
	name := prefix + method
	n.names[class].Store(method, name)
	return name
}

// tracedBackend records a dfs.<method> span around each Backend call.
// It embeds *dfs.Client rather than core.Backend so the optional
// capabilities core probes for (StatFresh, StatBatch, InvalidateSubtree,
// Pace, SetTrace) keep forwarding; hiding them would silently change
// miss-load correctness.
type tracedBackend struct {
	*dfs.Client
	t *tracer
}

var _ core.Backend = (*tracedBackend)(nil)

func (b *tracedBackend) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	sp := b.t.enter("dfs.stat")
	st, done, err := b.Client.Stat(at, p)
	sp.exit(b.t, 0)
	return st, done, err
}

func (b *tracedBackend) StatFresh(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	sp := b.t.enter("dfs.stat_fresh")
	st, done, err := b.Client.StatFresh(at, p)
	sp.exit(b.t, 0)
	return st, done, err
}

func (b *tracedBackend) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	sp := b.t.enter("dfs.stat_batch")
	res, done, err := b.Client.StatBatch(at, paths)
	sp.exit(b.t, int64(len(paths)))
	return res, done, err
}

func (b *tracedBackend) Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	sp := b.t.enter("dfs.mkdir")
	done, err := b.Client.Mkdir(at, p, mode)
	sp.exit(b.t, 0)
	return done, err
}

func (b *tracedBackend) CreateWithStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	sp := b.t.enter("dfs.create")
	done, err := b.Client.CreateWithStat(at, p, st)
	sp.exit(b.t, 0)
	return done, err
}

func (b *tracedBackend) SetStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	sp := b.t.enter("dfs.setstat")
	done, err := b.Client.SetStat(at, p, st)
	sp.exit(b.t, 0)
	return done, err
}

func (b *tracedBackend) Remove(at vclock.Time, p string) (vclock.Time, error) {
	sp := b.t.enter("dfs.remove")
	done, err := b.Client.Remove(at, p)
	sp.exit(b.t, 0)
	return done, err
}

func (b *tracedBackend) RmTree(at vclock.Time, p string) ([]string, vclock.Time, error) {
	sp := b.t.enter("dfs.rmtree")
	removed, done, err := b.Client.RmTree(at, p)
	sp.exit(b.t, 0)
	return removed, done, err
}

func (b *tracedBackend) Rename(at vclock.Time, src, dst string) (vclock.Time, error) {
	sp := b.t.enter("dfs.rename")
	done, err := b.Client.Rename(at, src, dst)
	sp.exit(b.t, 0)
	return done, err
}

func (b *tracedBackend) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	sp := b.t.enter("dfs.readdir")
	ents, done, err := b.Client.Readdir(at, p)
	sp.exit(b.t, 0)
	return ents, done, err
}

func (b *tracedBackend) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	sp := b.t.enter("dfs.write")
	done, err := b.Client.WriteAt(at, p, off, data)
	sp.exit(b.t, 0)
	return done, err
}

func (b *tracedBackend) ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error) {
	sp := b.t.enter("dfs.read")
	data, done, err := b.Client.ReadAt(at, p, off, n)
	sp.exit(b.t, 0)
	return data, done, err
}

func (b *tracedBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	sp := b.t.enter("dfs.apply_batch")
	errs, done, err := b.Client.ApplyBatch(at, ops)
	sp.exit(b.t, int64(len(ops)))
	return errs, done, err
}
