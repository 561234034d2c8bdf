package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41}, {1<<62 + 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every positive value must be strictly below its bucket's bound and
	// at or above the previous bucket's bound.
	for _, v := range []int64{1, 2, 3, 5, 100, 4096, 1 << 30} {
		i := bucketOf(v)
		if v >= BucketBound(i) {
			t.Errorf("value %d not below BucketBound(%d)=%d", v, i, BucketBound(i))
		}
		if i > 1 && v < BucketBound(i-1) {
			t.Errorf("value %d below lower bound of bucket %d", v, i)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h *Histogram
	h.RecordN(5) // nil-safe no-op
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram has samples")
	}
	s := NewHistogram().Snapshot()
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	if m := s.Mean(); m != 0 {
		t.Fatalf("empty mean = %v, want 0", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	// 90 fast samples (~100ns) and 10 slow (~1ms).
	for i := 0; i < 90; i++ {
		h.RecordN(100)
	}
	for i := 0; i < 10; i++ {
		h.RecordN(1_000_000)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.50); q != BucketBound(bucketOf(100)) {
		t.Errorf("p50 = %d, want bound of 100's bucket (%d)", q, BucketBound(bucketOf(100)))
	}
	if q := s.Quantile(0.99); q != BucketBound(bucketOf(1_000_000)) {
		t.Errorf("p99 = %d, want bound of 1ms bucket (%d)", q, BucketBound(bucketOf(1_000_000)))
	}
	if s.Count != 100 || s.Sum != 90*100+10*1_000_000 {
		t.Errorf("count/sum = %d/%d", s.Count, s.Sum)
	}
	q := s.Quantiles()
	if q.Count != 100 || q.P50 > q.P95 || q.P95 > q.P99 {
		t.Errorf("quantile digest not monotone: %+v", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.RecordN(int64(w*per + i + 1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	total := int64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total != workers*per {
		t.Fatalf("bucket sum = %d, want %d", total, workers*per)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var o *Obs
	o.Hist("x").Record(time.Millisecond)
	o.ObserveRPC("a/pacon-r", "get", time.Millisecond, nil)
	o.RegisterGauge("g", func() int64 { return 1 })
	if o.SlowSpans(0) != nil {
		t.Fatal("nil obs returned slow spans")
	}
}

// TestEventsAndSlowSpans feeds two sampled spans' events, from two
// nodes and out of wall order, into the assembler at fixed wall times
// (through openSpan and bufferEvent, the sinks every hook ends in) and
// checks the read side: a span in flight reads back from its buffer, and
// the flight dump's events hold both spans wall-ordered; once finished,
// the slow-op log applies its threshold and lists the span with its
// total, outcome and segments.
func TestEventsAndSlowSpans(t *testing.T) {
	o := New()
	const s1, s2 = 1, 2
	o.openSpan(Event{Span: s1, Stage: StageEnqueue, Node: "n0", Op: "create", Path: "/a", Wall: 100})
	o.bufferEvent(Event{Span: s1, Stage: StageApply, Node: "n1", Op: "create", Path: "/a", Wall: 900})
	o.bufferEvent(Event{Span: s1, Stage: StageDequeue, Node: "n1", Op: "create", Path: "/a", Wall: 200})
	o.openSpan(Event{Span: s2, Stage: StageEnqueue, Node: "n0", Op: "rm", Path: "/b", Wall: 150})
	o.bufferEvent(Event{Span: s2, Stage: StageApply, Node: "n0", Op: "rm", Path: "/b", Wall: 250})

	cp, ok := o.SpanTrace(s1)
	if !ok || len(cp.Events) != 3 {
		t.Fatalf("span %d trace = %+v ok=%v, want 3 events", s1, cp, ok)
	}
	evs := cp.Events
	for i := 1; i < len(evs); i++ {
		if evs[i].Wall < evs[i-1].Wall {
			t.Fatal("span events not wall-ordered")
		}
	}
	if evs[0].Stage != StageEnqueue || evs[2].Stage != StageApply {
		t.Fatalf("lifecycle order wrong: %v ... %v", evs[0].Stage, evs[2].Stage)
	}
	if evs[0].Node != "n0" || evs[1].Node != "n1" {
		t.Fatalf("recording node lost: %q, %q", evs[0].Node, evs[1].Node)
	}
	if all := o.activeEvents(); len(all) != 5 || all[0].Wall != 100 || all[1].Span != s2 {
		t.Fatalf("in-flight events = %+v, want 5 in wall order", all)
	}

	o.finalizeSpan(s1)
	o.finalizeSpan(s2)
	if left := o.activeEvents(); len(left) != 0 {
		t.Fatalf("finished spans left %d in-flight events", len(left))
	}
	o.SetSlowThreshold(500)
	slow := o.SlowSpans(0)
	if len(slow) != 1 || slow[0].Span != s1 {
		t.Fatalf("slow spans = %+v, want only span %d", slow, s1)
	}
	if slow[0].Total != 800 || slow[0].Outcome != StageApply || slow[0].Kept != KeptSampled {
		t.Fatalf("slow span = %+v", slow[0])
	}
	segs := map[string]time.Duration{}
	for _, sg := range slow[0].Segments {
		segs[sg.Name] = sg.D
	}
	if len(segs) != 2 || segs[SegQueueWait] != 100 || segs[SegDFSApply] != 700 {
		t.Fatalf("segments wrong: %+v", slow[0].Segments)
	}
	if s := slow[0].Line(); !strings.Contains(s, "create /a") || !strings.Contains(s, "outcome=apply") ||
		!strings.Contains(s, "queue_wait=100ns") || strings.Contains(s, "\n") {
		t.Fatalf("slow line missing fields or not one line: %q", s)
	}
}

func TestObsRegistryAndProm(t *testing.T) {
	o := New()
	o.Hist(HistClientOp).Record(3 * time.Microsecond)
	o.Hist(HistQueueWait).Record(80 * time.Microsecond)
	o.ObserveRPC("node0/pacon-r0", "set", 2*time.Microsecond, nil)
	o.ObserveRPC("node0/mds", "apply_batch", 40*time.Microsecond, nil)
	o.RegisterCounter("ops_committed", func() int64 { return 42 })
	o.RegisterGauge("queue_depth", func() int64 { return 7 })

	if o.Hist(HistCacheRPC).Snapshot().Count != 1 || o.Hist(HistDFSRPC).Snapshot().Count != 1 {
		t.Fatal("ObserveRPC misclassified cache vs dfs round trips")
	}

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE pacon_ops_committed_total counter",
		"pacon_ops_committed_total 42",
		"# TYPE pacon_queue_depth gauge",
		"pacon_queue_depth 7",
		"# TYPE pacon_client_op_seconds histogram",
		"pacon_client_op_seconds_count 1",
		`pacon_client_op_seconds_bucket{le="+Inf"} 1`,
		"# TYPE pacon_cache_rpc_seconds histogram",
		"pacon_dfs_rpc_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}
	// Histograms must emit cumulative buckets: the +Inf bucket equals count.
	if !strings.Contains(body, `pacon_queue_wait_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("queue_wait +Inf bucket wrong\n---\n%s", body)
	}

	q := o.HistQuantiles()
	if len(q) < 4 {
		t.Fatalf("quantile digest has %d stages, want >= 4: %v", len(q), q)
	}
	if q[HistClientOp].Count != 1 {
		t.Fatalf("client_op digest = %+v", q[HistClientOp])
	}

	sum := o.Summary()
	for _, want := range []string{"queue_depth", "ops_committed", "client_op", "p95"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}

	o.PublishExpvar("pacon-test")
	o.PublishExpvar("pacon-test") // must not panic on duplicate
}

func TestPromSeconds(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		1:             "0.000000001",
		1_000_000_000: "1",
		1_500_000_000: "1.5",
	}
	for ns, want := range cases {
		if got := promSeconds(ns); got != want {
			t.Errorf("promSeconds(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestSlowThreshold(t *testing.T) {
	o := New()
	if o.SlowThreshold() != DefaultSlowSpan {
		t.Fatal("default threshold wrong")
	}
	o.SetSlowThreshold(time.Second)
	if o.SlowThreshold() != time.Second {
		t.Fatal("threshold not applied")
	}
	o.SetSlowThreshold(0)
	if o.SlowThreshold() != DefaultSlowSpan {
		t.Fatal("zero threshold should restore default")
	}
}
