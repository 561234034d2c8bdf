package core

import (
	"fmt"
	"sync"
	"testing"

	"pacon/internal/memcache"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// TestSpanLifecycleOrdering drives one create through the full pipeline
// and checks its trace: enqueue happens-before dequeue happens-before
// apply, all on one span, and the stage histograms saw the op.
func TestSpanLifecycleOrdering(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/traced", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	var evs []obs.Event
	for _, ev := range o.Events() {
		if ev.Path == "/w/traced" {
			evs = append(evs, ev)
		}
	}
	if len(evs) == 0 {
		t.Fatal("no trace events for the create")
	}
	span := evs[0].Span
	if span == 0 {
		t.Fatal("span id zero with obs enabled")
	}
	var order []obs.Stage
	lastWall := int64(0)
	for _, ev := range evs {
		if ev.Span != span {
			t.Fatalf("mixed spans in single-op trace: %d vs %d", ev.Span, span)
		}
		if ev.Wall < lastWall {
			t.Fatalf("events out of wall order: %v", evs)
		}
		lastWall = ev.Wall
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
	if !(enq < deq && deq < app) {
		t.Fatalf("stage order wrong: enqueue=%d dequeue=%d apply=%d", enq, deq, app)
	}

	q := o.HistQuantiles()
	for _, h := range []string{obs.HistClientOp, obs.HistQueueWait, obs.HistCommitLag} {
		if q[h].Count == 0 {
			t.Fatalf("histogram %q empty after a committed op; have %v", h, q)
		}
	}
}

// TestCoalesceTracedAsMerge checks that an op absorbed by dequeue-time
// coalescing closes with a coalesce event rather than an apply.
func TestCoalesceTracedAsMerge(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 1, func(cfg *RegionConfig) {
		cfg.CommitBatchSize = 64
	}, func(d *Deps) { d.Obs = o })
	c := e.client(t, "node0")

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
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if e.region.Stats().Coalesced == 0 {
		t.Skip("batch committed without coalescing (timing-dependent)")
	}
	merged := 0
	for _, ev := range o.Events() {
		if ev.Path == "/w/burst" && ev.Stage == obs.StageCoalesce {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("coalesced ops but no coalesce trace events")
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
