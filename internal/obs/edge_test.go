package obs

import (
	"strings"
	"testing"
)

// TestQuantileEmpty: an empty snapshot digests to zero everywhere, for
// every quantile including the clamped extremes.
func TestQuantileEmpty(t *testing.T) {
	var s HistSnapshot
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if d := s.Quantiles(); d.Count != 0 || d.P50 != 0 || d.P95 != 0 || d.P99 != 0 {
		t.Fatalf("empty digest not zero: %+v", d)
	}
	if m := s.Mean(); m != 0 {
		t.Fatalf("empty Mean = %v, want 0", m)
	}
}

// TestQuantileSingleBucket: when every sample lands in one log2 bucket,
// every quantile must report that bucket's exclusive upper bound — the
// digest cannot invent spread that was never recorded.
func TestQuantileSingleBucket(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.RecordN(100) // bucket 7: [64, 128)
	}
	s := h.Snapshot()
	want := BucketBound(bucketOf(100))
	if want != 128 {
		t.Fatalf("bucket bound for 100 = %d, want 128", want)
	}
	for _, q := range []float64{0.001, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(q); got != want {
			t.Fatalf("single-bucket Quantile(%v) = %d, want %d", q, got, want)
		}
	}
	d := s.Quantiles()
	if d.Count != 1000 || d.P50 != want || d.P95 != want || d.P99 != want {
		t.Fatalf("single-bucket digest %+v, want all bounds %d", d, want)
	}

	// Non-positive samples collapse into bucket 0, bounded at 1.
	h2 := NewHistogram()
	h2.RecordN(0)
	h2.RecordN(-5)
	if got := h2.Snapshot().Quantile(0.99); got != 1 {
		t.Fatalf("non-positive Quantile(0.99) = %d, want 1", got)
	}
}

// TestWritePromGolden pins the full exposition byte-for-byte: one
// registered counter plus the self-maintained RPC-error/trace/hotspot
// counters, one gauge plus the hotspot self-gauges and the skew gauges
// the region/dfs layers register (stub readers here), samples in
// commit_lag, recorded hotspot paths, and the six other pre-created
// pipeline histograms rendering at zero count. Any change to ordering,
// naming, bucket math, or second formatting shows up here.
func TestWritePromGolden(t *testing.T) {
	o := New()
	o.RegisterCounter("ops_committed", func() int64 { return 42 })
	o.RegisterGauge("queue_depth", func() int64 { return 7 })
	o.Hist(HistCommitLag).RecordN(100)
	o.Hist(HistCommitLag).RecordN(100)
	o.Hist(HistCommitLag).RecordN(1_000_000)
	// Hotspot telemetry: two paths on one node drive the self-gauges —
	// 2 paths tracked, 3 subtrees (/w, /w/a, /w/b), top share 2/3.
	n := o.Node("node0")
	n.OpBegin("stat", "/w/a/x")
	n.OpBegin("stat", "/w/a/x")
	n.OpBegin("stat", "/w/b/y")
	// The cache-ring and shard-pool skew gauges are registered by the
	// core region and dfs cluster respectively; stub readers pin their
	// names and placement in the exposition.
	o.RegisterGauge("hot_cache_load_maxmean_permille", func() int64 { return 1250 })
	o.RegisterGauge("hot_cache_load_cv_permille", func() int64 { return 250 })
	o.RegisterGauge("hot_shard_ops_maxmean_permille", func() int64 { return 2000 })
	o.RegisterGauge("hot_shard_ops_cv_permille", func() int64 { return 800 })
	o.RegisterGauge("hot_shard_queue_wait_maxmean_permille", func() int64 { return 1500 })
	o.RegisterGauge("hot_shard_queue_wait_cv_permille", func() int64 { return 400 })

	const golden = `# TYPE pacon_cache_rpc_errors_total counter
pacon_cache_rpc_errors_total 0
# TYPE pacon_dfs_rpc_errors_total counter
pacon_dfs_rpc_errors_total 0
# TYPE pacon_flight_dumps_total counter
pacon_flight_dumps_total 0
# TYPE pacon_hot_sketch_evictions_total counter
pacon_hot_sketch_evictions_total 0
# TYPE pacon_ops_committed_total counter
pacon_ops_committed_total 42
# TYPE pacon_spans_sampled_total counter
pacon_spans_sampled_total 0
# TYPE pacon_spans_tail_kept_total counter
pacon_spans_tail_kept_total 0
# TYPE pacon_hot_cache_load_cv_permille gauge
pacon_hot_cache_load_cv_permille 250
# TYPE pacon_hot_cache_load_maxmean_permille gauge
pacon_hot_cache_load_maxmean_permille 1250
# TYPE pacon_hot_node_ops_cv_permille gauge
pacon_hot_node_ops_cv_permille 0
# TYPE pacon_hot_node_ops_maxmean_permille gauge
pacon_hot_node_ops_maxmean_permille 1000
# TYPE pacon_hot_paths_tracked gauge
pacon_hot_paths_tracked 2
# TYPE pacon_hot_shard_ops_cv_permille gauge
pacon_hot_shard_ops_cv_permille 800
# TYPE pacon_hot_shard_ops_maxmean_permille gauge
pacon_hot_shard_ops_maxmean_permille 2000
# TYPE pacon_hot_shard_queue_wait_cv_permille gauge
pacon_hot_shard_queue_wait_cv_permille 400
# TYPE pacon_hot_shard_queue_wait_maxmean_permille gauge
pacon_hot_shard_queue_wait_maxmean_permille 1500
# TYPE pacon_hot_subtrees_tracked gauge
pacon_hot_subtrees_tracked 3
# TYPE pacon_hot_top_path_share_permille gauge
pacon_hot_top_path_share_permille 667
# TYPE pacon_queue_depth gauge
pacon_queue_depth 7
# TYPE pacon_barrier_wait_seconds histogram
pacon_barrier_wait_seconds_bucket{le="0.000000001"} 0
pacon_barrier_wait_seconds_bucket{le="+Inf"} 0
pacon_barrier_wait_seconds_sum 0
pacon_barrier_wait_seconds_count 0
# TYPE pacon_cache_rpc_seconds histogram
pacon_cache_rpc_seconds_bucket{le="0.000000001"} 0
pacon_cache_rpc_seconds_bucket{le="+Inf"} 0
pacon_cache_rpc_seconds_sum 0
pacon_cache_rpc_seconds_count 0
# TYPE pacon_client_op_seconds histogram
pacon_client_op_seconds_bucket{le="0.000000001"} 0
pacon_client_op_seconds_bucket{le="+Inf"} 0
pacon_client_op_seconds_sum 0
pacon_client_op_seconds_count 0
# TYPE pacon_commit_lag_seconds histogram
pacon_commit_lag_seconds_bucket{le="0.000000001"} 0
pacon_commit_lag_seconds_bucket{le="0.000000002"} 0
pacon_commit_lag_seconds_bucket{le="0.000000004"} 0
pacon_commit_lag_seconds_bucket{le="0.000000008"} 0
pacon_commit_lag_seconds_bucket{le="0.000000016"} 0
pacon_commit_lag_seconds_bucket{le="0.000000032"} 0
pacon_commit_lag_seconds_bucket{le="0.000000064"} 0
pacon_commit_lag_seconds_bucket{le="0.000000128"} 2
pacon_commit_lag_seconds_bucket{le="0.000000256"} 2
pacon_commit_lag_seconds_bucket{le="0.000000512"} 2
pacon_commit_lag_seconds_bucket{le="0.000001024"} 2
pacon_commit_lag_seconds_bucket{le="0.000002048"} 2
pacon_commit_lag_seconds_bucket{le="0.000004096"} 2
pacon_commit_lag_seconds_bucket{le="0.000008192"} 2
pacon_commit_lag_seconds_bucket{le="0.000016384"} 2
pacon_commit_lag_seconds_bucket{le="0.000032768"} 2
pacon_commit_lag_seconds_bucket{le="0.000065536"} 2
pacon_commit_lag_seconds_bucket{le="0.000131072"} 2
pacon_commit_lag_seconds_bucket{le="0.000262144"} 2
pacon_commit_lag_seconds_bucket{le="0.000524288"} 2
pacon_commit_lag_seconds_bucket{le="0.001048576"} 3
pacon_commit_lag_seconds_bucket{le="+Inf"} 3
pacon_commit_lag_seconds_sum 0.0010002
pacon_commit_lag_seconds_count 3
# TYPE pacon_dfs_rpc_seconds histogram
pacon_dfs_rpc_seconds_bucket{le="0.000000001"} 0
pacon_dfs_rpc_seconds_bucket{le="+Inf"} 0
pacon_dfs_rpc_seconds_sum 0
pacon_dfs_rpc_seconds_count 0
# TYPE pacon_queue_wait_seconds histogram
pacon_queue_wait_seconds_bucket{le="0.000000001"} 0
pacon_queue_wait_seconds_bucket{le="+Inf"} 0
pacon_queue_wait_seconds_sum 0
pacon_queue_wait_seconds_count 0
# TYPE pacon_readdir_entries_seconds histogram
pacon_readdir_entries_seconds_bucket{le="0.000000001"} 0
pacon_readdir_entries_seconds_bucket{le="+Inf"} 0
pacon_readdir_entries_seconds_sum 0
pacon_readdir_entries_seconds_count 0
`

	var sb strings.Builder
	o.WriteProm(&sb)
	if got := sb.String(); got != golden {
		t.Fatalf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestSummaryConcurrentWithRegistration: Summary (and the exposition)
// must tolerate readers racing with RegisterCounter/RegisterGauge/Hist —
// the registry copies reader maps under its lock before invoking them.
func TestSummaryConcurrentWithRegistration(t *testing.T) {
	o := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			o.RegisterCounter("spin_counter", func() int64 { return 1 })
			o.RegisterGauge("spin_gauge", func() int64 { return 2 })
			o.Hist("spin_hist").RecordN(int64(i + 1))
		}
	}()
	for i := 0; i < 200; i++ {
		_ = o.Summary()
		var sb strings.Builder
		o.WriteProm(&sb)
	}
	<-done
	if !strings.Contains(o.Summary(), "spin_counter") {
		t.Fatal("summary missing registered counter after race")
	}
}
