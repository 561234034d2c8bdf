package mq

import "testing"

// batchMax is the commit process's default batch size
// (core.RegionConfig.CommitBatchSize).
const batchMax = 8

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int]()
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		var ok bool
		if buf, _, _, ok = q.PopBatchInto(buf, batchMax); !ok || len(buf) != 1 {
			b.Fatal("pop failed")
		}
	}
}

// BenchmarkQueueLaggingConsumer keeps 64 messages queued: each iteration
// pushes one and pops one, so the head keeps advancing through the buffer
// and the push side keeps compacting it.
func BenchmarkQueueLaggingConsumer(b *testing.B) {
	q := NewQueue[int]()
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	buf := make([]int, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		var ok bool
		if buf, _, _, ok = q.PopBatchInto(buf, 1); !ok || len(buf) != 1 {
			b.Fatal("pop failed")
		}
	}
}

func BenchmarkQueueContendedPublishers(b *testing.B) {
	q := NewQueue[int]()
	done := make(chan struct{})
	go func() {
		var buf []int
		for {
			var ok bool
			if buf, _, _, ok = q.PopBatchInto(buf, batchMax); !ok {
				close(done)
				return
			}
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Push(1)
		}
	})
	q.Close()
	<-done
}

func BenchmarkBarrierEpoch(b *testing.B) {
	bar := NewBarrier(1)
	for i := 0; i < b.N; i++ {
		e, err := bar.Begin()
		if err != nil {
			b.Fatal(err)
		}
		bar.Arrive(e, 0)
		if _, err := bar.AwaitArrivals(e); err != nil {
			b.Fatal(err)
		}
		bar.Release(e, 0)
		if _, err := bar.AwaitRelease(e); err != nil {
			b.Fatal(err)
		}
	}
}
