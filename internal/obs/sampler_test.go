package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// touch runs one client call that never enters the commit queue: begin
// and end, nothing between.
func touch(n *Node, op string, paths ...string) (span uint64, sampled bool) {
	span, sampled, start := n.OpBegin(op, paths...)
	n.OpEnd(span, sampled, false, start)
	return span, sampled
}

// TestSampleRate: head sampling keeps exactly 1 in N, n==1 keeps every
// op, and SetSampleN's sentinel values (0 = default, negative =
// disabled) behave as documented.
func TestSampleRate(t *testing.T) {
	o := New()
	n := o.Node("node0")
	o.SetSampleN(8)
	kept := 0
	for i := 0; i < 80; i++ {
		if _, sampled := touch(n, "stat", "/w/x"); sampled {
			kept++
		}
	}
	if kept != 10 {
		t.Fatalf("1-in-8 over 80 ops kept %d, want 10", kept)
	}
	if got := o.TraceStats().Sampled; got != 10 {
		t.Fatalf("spans_sampled = %d, want 10", got)
	}

	o.SetSampleN(1)
	for i := 0; i < 5; i++ {
		if _, sampled := touch(n, "stat", "/w/x"); !sampled {
			t.Fatal("SampleN(1) must keep every op")
		}
	}

	o.SetSampleN(0)
	if got := o.SampleN(); got != DefaultSampleN {
		t.Fatalf("SetSampleN(0) → rate %d, want default %d", got, DefaultSampleN)
	}

	o.SetSampleN(-1)
	if got := o.SampleN(); got != 0 {
		t.Fatalf("SetSampleN(-1) → rate %d, want 0 (disabled)", got)
	}
	for i := 0; i < 100; i++ {
		if _, sampled := touch(n, "stat", "/w/x"); sampled {
			t.Fatal("disabled sampler must never sample")
		}
	}
}

// TestNilObsTraceSurface: every tracing entry point must be a no-op on a
// nil *Obs and the nil *Node it hands out — the disabled-observability
// configuration calls them all.
func TestNilObsTraceSurface(t *testing.T) {
	var o *Obs
	o.SetSampleN(4)
	if o.SampleN() != 0 {
		t.Fatal("nil Obs must report sampling disabled")
	}
	n := o.Node("node0")
	if n != nil {
		t.Fatal("nil Obs must hand out a nil node")
	}
	span, sampled, start := n.OpBegin("create", "/p")
	if span != 0 || sampled || start != 0 {
		t.Fatalf("nil node OpBegin = (%d, %v, %d), want zeros", span, sampled, start)
	}
	if wall := n.Event(1, true, StageEnqueue, "create", "/p", ""); wall != 0 {
		t.Fatalf("nil node Event stamped wall %d", wall)
	}
	n.Dequeue(1, true, 1, "create", "/p")
	if lag := n.Terminal(1, true, true, 1, StageDrop, "create", "/p", "x"); lag != 0 {
		t.Fatalf("nil node Terminal lag = %d", lag)
	}
	n.OpEnd(1, true, false, 1)
	o.ObserveServerSpan(1, 1, "a/pacon-r", "get", time.Now(), time.Millisecond, nil)
	if got := o.RecentSpans(0); got != nil {
		t.Fatalf("nil Obs RecentSpans = %v, want nil", got)
	}
	if _, ok := o.SpanTrace(1); ok {
		t.Fatal("nil Obs SpanTrace must report not found")
	}
	if ts := o.TraceStats(); ts != (TraceStats{}) {
		t.Fatalf("nil Obs TraceStats = %+v, want zero", ts)
	}
	if o.SlowSpans(0) != nil {
		t.Fatal("nil Obs returned slow spans")
	}
	o.SetFlightDir(t.TempDir())
	if b := o.TriggerFlight("x"); b != nil {
		t.Fatal("nil Obs TriggerFlight must return nil")
	}
	if b := o.LastFlight(); b != nil {
		t.Fatal("nil Obs LastFlight must return nil")
	}
}

// TestTwoNodeAssembly drives one sampled create through every hook —
// begin, enqueue, end, dequeue, terminal — with a cache server's side of
// it (a different node) arriving last although it happened first, as it
// would over the wire, and checks the assembled critical path: events
// reordered by wall time, segment attribution summing exactly to the
// span total, and cross-node provenance preserved.
func TestTwoNodeAssembly(t *testing.T) {
	o := New()
	o.SetSampleN(1)
	client := o.Node("node0")

	span, sampled, start := client.OpBegin("create", "/w/f")
	if span == 0 || !sampled {
		t.Fatalf("OpBegin = (%d, %v), want a sampled span", span, sampled)
	}
	srvStart := time.Now()
	const srvD = 50 * time.Microsecond
	time.Sleep(2 * srvD) // the server's recv→done interval precedes the enqueue
	enq := client.Event(span, sampled, StageEnqueue, "create", "/w/f", "")
	client.OpEnd(span, sampled, true, start) // queued: must not finalize
	if len(o.RecentSpans(0)) != 0 {
		t.Fatal("a queued span was finalized at OpEnd")
	}
	client.Dequeue(span, sampled, enq, "create", "/w/f")
	o.ObserveServerSpan(span, 1, "node1/pacon-test", "set", srvStart, srvD, nil)
	lag := client.Terminal(span, sampled, false, enq, StageApply, "create", "/w/f", "")
	if lag <= 0 {
		t.Fatalf("terminal lag = %d, want > 0", lag)
	}

	kept := o.RecentSpans(0)
	if len(kept) != 1 {
		t.Fatalf("kept %d spans, want 1", len(kept))
	}
	cp := kept[0]
	if cp.Span != span || cp.Kept != KeptSampled {
		t.Fatalf("kept span=%d kept=%q, want %d/%q", cp.Span, cp.Kept, span, KeptSampled)
	}
	if cp.Op != "create" || cp.Path != "/w/f" {
		t.Fatalf("span op/path = %q %q, want create /w/f", cp.Op, cp.Path)
	}
	want := []Stage{StageClientStart, StageServerRecv, StageServerDone, StageEnqueue, StageDequeue, StageApply}
	if len(cp.Events) != len(want) {
		t.Fatalf("assembled %d events, want %d: %+v", len(cp.Events), len(want), cp.Events)
	}
	for i, ev := range cp.Events {
		if ev.Stage != want[i] {
			t.Fatalf("event %d is %v, want %v (not wall-ordered): %+v", i, ev.Stage, want[i], cp.Events)
		}
		if i > 0 && ev.Wall < cp.Events[i-1].Wall {
			t.Fatalf("events not wall-ordered at %d: %d after %d", i, ev.Wall, cp.Events[i-1].Wall)
		}
		wantNode := "node0"
		if ev.Stage == StageServerRecv || ev.Stage == StageServerDone {
			wantNode = "node1/pacon-test"
		}
		if ev.Node != wantNode {
			t.Fatalf("event %d (%v) on node %q, want %q: cross-node provenance lost", i, ev.Stage, ev.Node, wantNode)
		}
	}
	if total := time.Duration(cp.Events[len(cp.Events)-1].Wall - start); cp.Total != total {
		t.Fatalf("span total = %v, want start→apply %v", cp.Total, total)
	}
	var sum time.Duration
	segs := map[string]time.Duration{}
	for _, s := range cp.Segments {
		sum += s.D
		segs[s.Name] = s.D
	}
	if sum != cp.Total {
		t.Fatalf("segments sum %v != total %v", sum, cp.Total)
	}
	// The server events must have been charged to cache_rpc (their node
	// is a cache-service address): at least the recv→done interval.
	if segs[SegCacheRPC] < srvD {
		t.Fatalf("cache_rpc attribution %v < server interval %v: %+v", segs[SegCacheRPC], srvD, cp.Segments)
	}

	// SpanTrace must find the same finished span by ID.
	got, ok := o.SpanTrace(span)
	if !ok || got.Span != span || len(got.Events) != len(want) {
		t.Fatalf("SpanTrace(%d) = %+v ok=%v", span, got, ok)
	}
	// Finalizing attributed the segments as critpath_* histograms, and
	// the hooks fed the pipeline histograms exactly once each.
	q := o.HistQuantiles()
	for _, h := range []string{"critpath_" + SegCacheRPC, HistClientOp, HistQueueWait, HistCommitLag} {
		if q[h].Count != 1 {
			t.Fatalf("histogram %q count = %d, want 1", h, q[h].Count)
		}
	}
}

// TestUnqueuedSpanFinalizesAtOpEnd: a sampled call that never enters the
// commit queue (sync ops, failed calls) is assembled when it ends.
func TestUnqueuedSpanFinalizesAtOpEnd(t *testing.T) {
	o := New()
	o.SetSampleN(1)
	span, _ := touch(o.Node("node0"), "stat", "/w/f")
	kept := o.RecentSpans(0)
	if len(kept) != 1 || kept[0].Span != span || kept[0].Op != "stat" || kept[0].Kept != KeptSampled {
		t.Fatalf("kept = %+v, want the one sampled stat span %d", kept, span)
	}
}

// TestTailKeepAnomalies: unsampled spans are kept at their terminal when
// failed, parked, or slow — and not otherwise.
func TestTailKeepAnomalies(t *testing.T) {
	o := New()
	o.SetSampleN(-1)
	o.SetSlowThreshold(time.Millisecond)
	n := o.Node("node0")
	now := time.Now().UnixNano()
	slowEnq := now - int64(2*time.Millisecond)

	n.Terminal(1, false, false, now, StageApply, "create", "/a", "")             // healthy: not kept
	n.Terminal(2, false, false, now, StageDrop, "create", "/b", "backend_error") // failed
	n.Terminal(3, false, true, now, StageApply, "mkdir", "/c", "")               // parked
	n.Terminal(4, false, false, slowEnq, StageApply, "rm", "/d", "")             // slow

	kept := o.RecentSpans(0)
	if len(kept) != 3 {
		t.Fatalf("tail-kept %d spans, want 3: %+v", len(kept), kept)
	}
	// Newest first.
	if kept[0].Span != 4 || kept[1].Span != 3 || kept[2].Span != 2 {
		t.Fatalf("kept order = %d,%d,%d, want 4,3,2", kept[0].Span, kept[1].Span, kept[2].Span)
	}
	for _, cp := range kept {
		if cp.Kept != KeptTail {
			t.Fatalf("span %d kept=%q, want %q", cp.Span, cp.Kept, KeptTail)
		}
	}
	if kept[0].Op != "rm" || kept[0].Path != "/d" || kept[0].Total < 2*time.Millisecond {
		t.Fatalf("slow tail record = %+v, want rm /d with its ≥2ms lag", kept[0])
	}
	if got := o.TraceStats().TailKept; got != 3 {
		t.Fatalf("spans_tail_kept = %d, want 3", got)
	}
	// Only applied ops feed commit_lag: 1, 3 and 4, not the dropped 2.
	if got := o.HistQuantiles()[HistCommitLag].Count; got != 3 {
		t.Fatalf("commit_lag count = %d, want 3", got)
	}
}

// TestFlightRecorder: a trigger produces parseable JSON carrying the
// kept spans and the events of the spans still in flight, writes the
// file when a directory is configured, counts in TraceStats, and
// rate-limits repeat triggers.
func TestFlightRecorder(t *testing.T) {
	o := New()
	o.SetSampleN(1)
	dir := t.TempDir()
	o.SetFlightDir(dir)

	n := o.Node("node0")
	span, sampled, start := n.OpBegin("create", "/w/x")
	enq := n.Event(span, sampled, StageEnqueue, "create", "/w/x", "")
	n.OpEnd(span, sampled, true, start)
	n.Terminal(span, sampled, false, enq, StageApply, "create", "/w/x", "")
	// A second op is still queued at dump time.
	queued, sampled, start := n.OpBegin("create", "/w/y")
	n.Event(queued, sampled, StageEnqueue, "create", "/w/y", "")
	n.OpEnd(queued, sampled, true, start)

	b := o.TriggerFlight("unit test!")
	if b == nil {
		t.Fatal("first trigger returned nil")
	}
	var dump FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "unit test!" {
		t.Fatalf("dump reason = %q", dump.Reason)
	}
	if len(dump.RecentSpans) != 1 || dump.RecentSpans[0].Span != span || len(dump.RecentSpans[0].Events) != 3 {
		t.Fatalf("dump recent spans = %+v, want span %d with start, enqueue, apply", dump.RecentSpans, span)
	}
	if len(dump.Events) != 2 || dump.Events[0].Span != queued || dump.Events[1].Stage != StageEnqueue {
		t.Fatalf("dump events = %+v, want the queued span %d's start and enqueue", dump.Events, queued)
	}
	if dump.Hotspots == nil || dump.Hotspots.TotalOps != 2 || dump.Latency[HistClientOp].Count != 2 {
		t.Fatalf("dump hotspots/latency = %+v / %+v, want the two ops", dump.Hotspots, dump.Latency)
	}
	if string(o.LastFlight()) != string(b) {
		t.Fatal("LastFlight differs from trigger return")
	}

	// File written with the sanitized reason.
	matches, _ := filepath.Glob(filepath.Join(dir, "pacon-flight-*.json"))
	if len(matches) != 1 {
		t.Fatalf("flight dir holds %v, want one dump", matches)
	}
	if base := filepath.Base(matches[0]); !strings.Contains(base, "unit_test_") {
		t.Fatalf("dump file name %q not sanitized as expected", base)
	}
	onDisk, err := os.ReadFile(matches[0])
	if err != nil || string(onDisk) != string(b) {
		t.Fatalf("on-disk dump mismatch (err=%v)", err)
	}

	// Rate limit: an immediate second trigger is suppressed.
	if b2 := o.TriggerFlight("again"); b2 != nil {
		t.Fatal("second trigger within the interval must be suppressed")
	}
	if got := o.TraceStats().FlightDumps; got != 1 {
		t.Fatalf("flight_dumps = %d, want 1", got)
	}
}

// TestUnsampledHooksZeroAlloc pins the whole unsampled op path at zero
// allocations — begin (sketch records on resident keys, span ID, the
// head-sampling decision), the stage event, dequeue, the healthy-op
// terminal, end — or the tracer would tax every op to pay for the 1-in-N
// it assembles, and checks it stores nothing: a flight dump after it has
// no events and no kept spans. The disabled path (nil node) is free too.
func TestUnsampledHooksZeroAlloc(t *testing.T) {
	o := New()
	o.SetSampleN(1 << 30)         // head sampling on, but never hits during the run
	o.SetSlowThreshold(time.Hour) // and no op is slow, however slow the host
	for name, n := range map[string]*Node{"attached": o.Node("node0"), "disabled": nil} {
		touch(n, "create", "/w/d/x") // make the key (and its ancestors) resident
		var span uint64
		var sampled bool
		var start, enq int64
		hooks := []struct {
			hook string
			fn   func()
		}{
			{"OpBegin", func() { span, sampled, start = n.OpBegin("create", "/w/d/x") }},
			{"Event", func() { enq = n.Event(span, sampled, StageEnqueue, "create", "/w/d/x", "") }},
			{"OpEnd", func() { n.OpEnd(span, sampled, true, start) }},
			{"Dequeue", func() { n.Dequeue(span, sampled, enq, "create", "/w/d/x") }},
			{"Terminal", func() { n.Terminal(span, sampled, false, enq, StageApply, "create", "/w/d/x", "") }},
		}
		for _, h := range hooks {
			if allocs := testing.AllocsPerRun(1000, h.fn); allocs != 0 {
				t.Fatalf("%s node: %s allocates %v/op, want 0", name, h.hook, allocs)
			}
		}
		if sampled {
			t.Fatal("the run was supposed to stay unsampled")
		}
	}
	var dump FlightDump
	if err := json.Unmarshal(o.TriggerFlight("unsampled"), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 0 || len(dump.RecentSpans) != 0 {
		t.Fatalf("healthy unsampled ops left %d events and %d kept spans", len(dump.Events), len(dump.RecentSpans))
	}
}

// TestFullAssemblerKeepsTheTail: a span the head sampler picks while the
// assembler holds maxActiveSpans is unsampled, not counted as sampled,
// and an anomalous end still tail-keeps it.
func TestFullAssemblerKeepsTheTail(t *testing.T) {
	o := New()
	o.SetSampleN(1)
	n := o.Node("node0")
	for i := 0; i < maxActiveSpans; i++ {
		if _, sampled, _ := n.OpBegin("create", "/w/open"); !sampled {
			t.Fatalf("span %d refused below the bound", i)
		}
	}
	span, sampled, start := n.OpBegin("create", "/w/late")
	if sampled {
		t.Fatal("a span past the assembler's bound was reported sampled")
	}
	enq := n.Event(span, sampled, StageEnqueue, "create", "/w/late", "")
	n.OpEnd(span, sampled, true, start)
	n.Terminal(span, sampled, false, enq, StageDrop, "create", "/w/late", "backend_error")

	kept := o.RecentSpans(0)
	if len(kept) != 1 || kept[0].Span != span || kept[0].Kept != KeptTail || kept[0].Outcome != StageDrop {
		t.Fatalf("kept = %+v, want span %d tail-kept as a drop", kept, span)
	}
	if ts := o.TraceStats(); ts.Sampled != maxActiveSpans || ts.TailKept != 1 {
		t.Fatalf("trace stats = %+v, want %d sampled and 1 tail-kept", ts, maxActiveSpans)
	}
}

// TestSpanCapKeepsTerminal: a span past maxSpanEvents still ends on its
// terminal — the newest event takes the last slot — so an often-retried
// drop is kept as a drop with its full total.
func TestSpanCapKeepsTerminal(t *testing.T) {
	o := New()
	o.SetSampleN(1)
	n := o.Node("node0")
	span, sampled, start := n.OpBegin("create", "/w/f")
	enq := n.Event(span, sampled, StageEnqueue, "create", "/w/f", "")
	n.OpEnd(span, sampled, true, start)
	for i := 0; i < 600; i++ {
		n.Event(span, sampled, StageRetry, "create", "/w/f", "")
	}
	n.Terminal(span, sampled, true, enq, StageDrop, "create", "/w/f", "retry_budget")

	cp, ok := o.SpanTrace(span)
	if !ok || cp.Outcome != StageDrop || len(cp.Events) != maxSpanEvents {
		t.Fatalf("SpanTrace = outcome %v, %d events, ok=%v; want drop with %d events", cp.Outcome, len(cp.Events), ok, maxSpanEvents)
	}
	if last := cp.Events[len(cp.Events)-1]; last.Note != "retry_budget" || cp.Total != time.Duration(last.Wall-start) {
		t.Fatalf("total %v does not end at the drop %+v", cp.Total, last)
	}
}

// TestNodesConcurrentWithScrapes creates nodes and drives their hooks
// while /metrics scrapes and flight dumps walk the same registry — the
// -race test for the one per-node map every reader ranges over.
func TestNodesConcurrentWithScrapes(t *testing.T) {
	o := New()
	o.SetSampleN(4)
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// A fresh node every few ops, shared names across writers.
				n := o.Node(fmt.Sprintf("node%d", (g+i/8)%16))
				path := fmt.Sprintf("/w/d%d/f%d", g, i%13)
				span, sampled, start := n.OpBegin("create", path)
				enq := n.Event(span, sampled, StageEnqueue, "create", path, "")
				n.OpEnd(span, sampled, true, start)
				addr := fmt.Sprintf("storage%d/mds", i%3)
				o.ObserveRPC(addr, "apply_batch", time.Microsecond, nil)
				o.ObserveServerSpan(span, 1, addr, "apply_batch", time.Now(), time.Microsecond, nil)
				n.Dequeue(span, sampled, enq, "create", path)
				n.Terminal(span, sampled, i%17 == 0, enq, StageApply, "create", path, "")
			}
		}(g)
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			o.WriteProm(&sb)
			o.flightLast.Store(0) // lift the rate limit: every pass cuts a dump
			if o.TriggerFlight("race") == nil {
				t.Error("flight dump suppressed or failed to marshal")
				return
			}
			_ = o.SlowSpans(4)
			_ = o.HotReport(4, 0.01)
		}
	}()
	wg.Wait()
	close(stop)
	scrapes.Wait()

	var ops int64
	for _, l := range o.HotNodeLoads() {
		if strings.Contains(l.Node, "/") {
			t.Fatalf("service address %q counted as a client node", l.Node)
		}
		ops += l.Ops
	}
	if ops != writers*perWriter {
		t.Fatalf("recorded ops = %d, want %d", ops, writers*perWriter)
	}
	var sb strings.Builder
	o.WriteProm(&sb)
	for _, want := range []string{"pacon_dfs_rpc_storage0_mds_seconds_count", "pacon_dfs_rpc_errors_storage2_mds_total 0"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing per-shard series %q", want)
		}
	}
}

// BenchmarkUnsampledOp is the tracer's tax on an op it does not sample:
// the five hooks of one unsampled create on one node (begin, the enqueue
// event, end, dequeue, terminal).
func BenchmarkUnsampledOp(b *testing.B) {
	o := New()
	o.SetSampleN(1 << 30)
	o.SetSlowThreshold(time.Hour)
	n := o.Node("node0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		span, sampled, start := n.OpBegin("create", "/w/d/x")
		enq := n.Event(span, sampled, StageEnqueue, "create", "/w/d/x", "")
		n.OpEnd(span, sampled, true, start)
		n.Dequeue(span, sampled, enq, "create", "/w/d/x")
		n.Terminal(span, sampled, false, enq, StageApply, "create", "/w/d/x", "")
	}
}
