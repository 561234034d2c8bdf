package core

import (
	"fmt"
	"sync"
	"testing"

	"pacon/internal/memcache"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// keptSpans returns the kept spans of path, newest first.
func keptSpans(o *obs.Obs, path string) []obs.CritPath {
	var out []obs.CritPath
	for _, cp := range o.RecentSpans(0) {
		if cp.Path == path {
			out = append(out, cp)
		}
	}
	return out
}

// TestSpanLifecycleOrdering drives one sampled create through the full
// pipeline and checks its kept span: enqueue happens-before dequeue
// happens-before apply, all on one span, and the stage histograms saw the
// op.
func TestSpanLifecycleOrdering(t *testing.T) {
	o := obs.New()
	o.SetSampleN(1)
	e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/traced", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	kept := keptSpans(o, "/w/traced")
	if len(kept) != 1 || kept[0].Span == 0 || kept[0].Kept != obs.KeptSampled {
		t.Fatalf("kept spans for the create = %+v, want one sampled span", kept)
	}
	cp := kept[0]
	var order []obs.Stage
	for i, ev := range cp.Events {
		if ev.Span != cp.Span {
			t.Fatalf("mixed spans in single-op trace: %d vs %d", ev.Span, cp.Span)
		}
		if i > 0 && ev.Wall < cp.Events[i-1].Wall {
			t.Fatalf("events out of wall order: %v", cp.Events)
		}
		order = append(order, ev.Stage)
	}
	idx := func(s obs.Stage) int {
		for i, st := range order {
			if st == s {
				return i
			}
		}
		return -1
	}
	enq, deq, app := idx(obs.StageEnqueue), idx(obs.StageDequeue), idx(obs.StageApply)
	if enq == -1 || deq == -1 || app == -1 {
		t.Fatalf("missing lifecycle stage: stages=%v", order)
	}
	if !(enq < deq && deq < app) || cp.Outcome != obs.StageApply {
		t.Fatalf("stage order wrong: enqueue=%d dequeue=%d apply=%d outcome=%v", enq, deq, app, cp.Outcome)
	}

	q := o.HistQuantiles()
	for _, h := range []string{obs.HistClientOp, obs.HistQueueWait, obs.HistCommitLag} {
		if q[h].Count == 0 {
			t.Fatalf("histogram %q empty after a committed op; have %v", h, q)
		}
	}
}

// TestCoalesceTracedAsMerge checks that an op absorbed by dequeue-time
// coalescing closes with a coalesce event rather than an apply. The
// commit processes are held until the create and its eight writes are all
// queued, so they leave in one dequeue batch and fold.
func TestCoalesceTracedAsMerge(t *testing.T) {
	o := obs.New()
	o.SetSampleN(1)
	e := newEnvDeps(t, 1, func(cfg *RegionConfig) {
		cfg.CommitBatchSize = 64
	}, func(d *Deps) { d.Obs = o })
	c := e.client(t, "node0")

	release := holdCommits(t, e.region)
	at, err := c.Create(0, "/w/burst", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back setstats on one path coalesce inside a dequeue batch
	// (create+setstat and setstat+setstat rules both fold).
	for i := 0; i < 8; i++ {
		if at, err = c.WriteAt(at, "/w/burst", 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	release()
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	coalesced := e.region.Stats().Coalesced
	if coalesced == 0 {
		t.Fatal("nine queued ops on one path committed without coalescing")
	}
	var merged, applied int64
	for _, cp := range keptSpans(o, "/w/burst") {
		switch cp.Outcome {
		case obs.StageCoalesce:
			merged++
		case obs.StageApply:
			applied++
		}
	}
	if merged != coalesced || applied == 0 {
		t.Fatalf("kept spans: %d ended in coalesce, %d in apply; region coalesced %d", merged, applied, coalesced)
	}
}

// TestCacheStatsMatchesPerServerSums: the concurrent fan-out aggregation
// must equal the plain sum of each server's stats on a quiescent region.
func TestCacheStatsMatchesPerServerSums(t *testing.T) {
	e := newEnv(t, 3, nil)
	c := e.client(t, "node0")

	at := vclock.Time(0)
	var err error
	for i := 0; i < 40; i++ {
		if at, err = c.Create(at, fmt.Sprintf("/w/s%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, at, err = c.Stat(at, fmt.Sprintf("/w/s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	var want memcache.Stats
	for _, n := range e.region.nodes {
		st := n.cache.Stats()
		want.Items += st.Items
		want.UsedBytes += st.UsedBytes
		want.Hits += st.Hits
		want.Misses += st.Misses
		want.Evictions += st.Evictions
		want.ServedOps += st.ServedOps
	}
	got := e.region.CacheStats()
	if got != want {
		t.Fatalf("CacheStats = %+v, per-server sum = %+v", got, want)
	}
	if got.Items == 0 || got.Hits == 0 {
		t.Fatalf("degenerate stats (nothing cached?): %+v", got)
	}
}

// TestRegionStatsRace hammers the counters from mutating clients while
// concurrent readers snapshot Stats/CacheStats/QueueDepth; the race
// detector proves every counter access is synchronized.
func TestRegionStatsRace(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 2, nil, func(d *Deps) { d.Obs = o })

	clients := []*Client{e.client(t, "node0"), e.client(t, "node1")}

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = e.region.Stats()
				_ = e.region.CacheStats()
				_ = e.region.QueueDepth()
				_ = o.HistQuantiles()
				_ = o.SlowSpans(4)
			}
		}()
	}
	for n, c := range clients {
		writers.Add(1)
		go func(n int, c *Client) {
			defer writers.Done()
			at := vclock.Time(0)
			var err error
			for i := 0; i < 60; i++ {
				p := fmt.Sprintf("/w/r%d_%d", n, i)
				if at, err = c.Create(at, p, 0o644); err != nil {
					t.Error(err)
					return
				}
				if at, err = c.Remove(at, p); err != nil {
					t.Error(err)
					return
				}
			}
		}(n, c)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if _, err := e.region.Drain(0); err != nil {
		t.Fatal(err)
	}
	st := e.region.Stats()
	if st.Committed+st.Discarded == 0 {
		t.Fatalf("no ops accounted for: %+v", st)
	}
}
