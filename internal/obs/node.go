package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Node is one node's telemetry handle — the single hook the op path
// records through. It owns the node's hot-path sketches and reaches the
// pipeline histograms and the span assembler through pointers resolved
// once in New, so no op-path call takes the registry lock or probes a map
// by name; it stores no events of its own. Every method is nil-safe: a
// nil *Node (observability disabled) costs the caller one branch.
//
// Nodes are keyed by name in one registry (Obs.nodes). A name is either
// a client node ("node0", handed out by Obs.Node) or an MDS address
// ("storage0/mds0", created by the RPC seam for the per-shard RPC
// breakdown); only the former carry sketches.
type Node struct {
	o    *Obs
	name string

	// hot is the node's sketches, set the first time Obs.Node hands the
	// node to a client. Service-address nodes keep it nil, which is what
	// keeps them out of the hotspot tables and the node-load skew.
	hot atomic.Pointer[sketches]

	// Per-address DFS RPC breakdown, registered as "dfs_rpc/<addr>" and
	// "dfs_rpc_errors/<addr>" by the first round trip to an MDS address.
	rpcOnce sync.Once
	rpc     *Histogram
	rpcErrs atomic.Int64
}

// Node returns (creating on first use) the named client node's handle.
// A nil registry returns a nil handle, whose methods record nothing.
func (o *Obs) Node(name string) *Node {
	if o == nil {
		return nil
	}
	n := o.node(name)
	if n.hot.Load() == nil {
		n.hot.CompareAndSwap(nil, newSketches())
	}
	return n
}

// node is the registry lookup: lock-free once the name is known.
func (o *Obs) node(name string) *Node {
	if v, ok := o.nodes.Load(name); ok {
		return v.(*Node)
	}
	v, _ := o.nodes.LoadOrStore(name, &Node{o: o, name: name})
	return v.(*Node)
}

// nodeList snapshots the registry in name order — the one iteration
// every reader (hotspot tables, node-load skew) uses.
func (o *Obs) nodeList() []*Node {
	var ns []*Node
	o.nodes.Range(func(_, v any) bool {
		ns = append(ns, v.(*Node))
		return true
	})
	sort.Slice(ns, func(i, j int) bool { return ns[i].name < ns[j].name })
	return ns
}

// OpBegin opens a client call: every path named feeds the hot-path
// sketches, the call gets a span ID (never 0), and the head sampler
// decides whether the span is assembled end to end — a sampled call
// opens its assembly buffer with its start event here. A call the sampler
// picks while the assembler is full is unsampled: tail-keep still
// applies, and its RPCs carry no trace context. start is the wall time
// OpEnd measures the call's synchronous latency from. Callers nest calls
// (Rmdir stats its target) and must begin only the outermost.
func (n *Node) OpBegin(op string, paths ...string) (span uint64, sampled bool, start int64) {
	if n == nil {
		return 0, false, 0
	}
	n.hot.Load().record(paths) // set: only Obs.Node hands a node to the op path
	span = n.o.spanSeq.Add(1)
	start = time.Now().UnixNano()
	if n.o.sampleNext() {
		ev := Event{Span: span, Stage: StageClientStart, Node: n.name, Op: op, Wall: start}
		if len(paths) > 0 {
			ev.Path = paths[0]
		}
		sampled = n.o.openSpan(ev)
	}
	return span, sampled, start
}

// OpEnd closes a client call: its synchronous latency lands in
// client_op, and a sampled span that never entered the commit queue
// (sync ops, failed calls) is finalized here — a queued one finalizes at
// its Terminal.
func (n *Node) OpEnd(span uint64, sampled, queued bool, start int64) {
	if n == nil {
		return
	}
	n.o.clientOp.RecordN(time.Now().UnixNano() - start)
	if sampled && !queued {
		n.o.finalizeSpan(span)
	}
}

// Event returns the wall time now and, on a sampled span, records one
// stage event at it into the span's assembly buffer. An unsampled span
// records nothing: Dequeue and Terminal need only the time.
func (n *Node) Event(span uint64, sampled bool, stage Stage, op, path, note string) int64 {
	if n == nil {
		return 0
	}
	wall := time.Now().UnixNano()
	if sampled {
		n.o.bufferEvent(Event{Span: span, Stage: stage, Node: n.name, Op: op, Path: path, Wall: wall, Note: note})
	}
	return wall
}

// Dequeue records the commit process taking the op off its queue, and
// the queue residency that ended there.
func (n *Node) Dequeue(span uint64, sampled bool, enqWall int64, op, path string) {
	if n == nil {
		return
	}
	n.o.queueWait.RecordN(n.Event(span, sampled, StageDequeue, op, path, "") - enqWall)
}

// Terminal closes an op's pipeline life with its last stage event —
// apply, coalesce (absorbed into a survivor), discard or drop — and
// returns its enqueue→terminal lag. An applied op's lag lands in
// commit_lag; a sampled span is assembled and attributed; an unsampled
// one that ended anomalous (dropped, ever parked, or slower than the
// slow-span threshold) is tail-kept. The healthy unsampled case is one
// clock read and two compares, no lock and no allocation.
func (n *Node) Terminal(span uint64, sampled, parked bool, enqWall int64, stage Stage, op, path, note string) (lag int64) {
	if n == nil {
		return 0
	}
	o := n.o
	lag = n.Event(span, sampled, stage, op, path, note) - enqWall
	if stage == StageApply {
		o.commitLag.RecordN(lag)
	}
	switch {
	case sampled:
		o.finalizeSpan(span)
	case stage == StageDrop || parked || lag >= o.slowNanos.Load():
		o.tailKeep(span, op, path, stage, time.Duration(lag))
	}
	return lag
}

// observeRPC feeds the per-address DFS RPC breakdown, exposing it
// through the registry on the first round trip (WriteProm sanitizes the
// '/'-bearing names).
func (n *Node) observeRPC(d time.Duration, err error) {
	n.rpcOnce.Do(func() {
		n.rpc = NewHistogram()
		n.o.mu.Lock()
		n.o.hists[HistDFSRPC+"/"+n.name] = n.rpc
		n.o.mu.Unlock()
		n.o.RegisterCounter("dfs_rpc_errors/"+n.name, n.rpcErrs.Load)
	})
	n.rpc.Record(d)
	if err != nil {
		n.rpcErrs.Add(1)
	}
}
