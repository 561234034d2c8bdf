package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of a log2 histogram: bucket 0
// holds non-positive values, bucket i (1..63) holds values whose bit
// length is i, i.e. the half-open range [2^(i-1), 2^i).
const histBuckets = 64

// Histogram is a fixed-bucket log2 latency histogram. Recording is one
// atomic add per bucket plus two for count/sum — cheap enough to sit on
// the commit path when observability is enabled, and trivially safe for
// concurrent use. The zero value is NOT usable (histograms must not be
// copied once recorded into); create them through Obs.Hist or NewHistogram.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its log2 bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for v in [1, 2^63)
}

// BucketBound returns the exclusive upper bound of bucket i: values in
// bucket i are < BucketBound(i). Bucket 0 bounds at 1 (it holds v <= 0).
func BucketBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i)
}

// RecordN records one raw sample (nanoseconds for latency series). Safe
// on a nil histogram (no-op), so disabled-observability call sites pay
// one branch.
func (h *Histogram) RecordN(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Record records a duration sample.
func (h *Histogram) Record(d time.Duration) { h.RecordN(int64(d)) }

// Snapshot copies the histogram's counters. The copy is per-bucket
// atomic, not globally atomic: under concurrent recording the totals may
// disagree with the buckets by in-flight samples, which quantile math
// tolerates (it normalizes over the bucket sum).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable histogram copy: quantile math runs
// on snapshots so it never contends with recorders.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
}

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1):
// the exclusive upper bound of the bucket containing the ceil(q*n)-th
// smallest sample. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	total := int64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) || target == 0 {
		target++
	}
	cum := int64(0)
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Mean returns the arithmetic mean of the recorded samples (0 if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantiles is the compact per-stage digest embedded in flight dumps
// and rendered by `paconfs stats`: sample count plus p50/p95/p99 upper
// bounds in nanoseconds.
type Quantiles struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P95   int64 `json:"p95_ns"`
	P99   int64 `json:"p99_ns"`
}

// Quantiles digests the snapshot.
func (s HistSnapshot) Quantiles() Quantiles {
	return Quantiles{
		Count: s.Count,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}
