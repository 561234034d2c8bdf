package core

import (
	"bytes"
	"errors"
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// gatedBackend blocks the commit side's metadata mutations — all of
// which are an ApplyBatch — until gate is closed, pinning ops in the
// commit pipeline so lag/staleness state can be asserted
// deterministically mid-flight.
type gatedBackend struct {
	Backend
	gate <-chan struct{}
}

func (g *gatedBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	<-g.gate
	return g.Backend.ApplyBatch(at, ops)
}

// TestLagReleasedAfterDrain: every committed op must release its lag
// entry — a drained region reports zero staleness and a non-zero peak
// commit lag, and the new watermark gauges appear in the exposition.
func TestLagReleasedAfterDrain(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 2, nil, func(d *Deps) { d.Obs = o })
	c := e.client(t, "node0")

	var at vclock.Time
	for i := 0; i < 8; i++ {
		var err error
		at, err = c.Create(at, fmt.Sprintf("/w/lag%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	if s := e.region.MaxStaleness(); s != 0 {
		t.Fatalf("MaxStaleness = %d after drain, want 0", s)
	}
	if e.region.MaxCommitLag() <= 0 {
		t.Fatal("MaxCommitLag zero after committed ops")
	}
	for _, node := range e.nodes {
		if a := age(e.region.byName[node].inflight.oldest("")); a != 0 {
			t.Fatalf("oldest unacked op on %s is %d ns old after drain, want none", node, a)
		}
	}

	var sb strings.Builder
	o.WriteProm(&sb)
	prom := sb.String()
	for _, m := range []string{
		"pacon_max_staleness_ns", "pacon_max_commit_lag_ns",
		"pacon_queue_head_age_ns", "pacon_queue_oldest_unacked_ns_node0",
		"pacon_commit_lag_seconds_count",
	} {
		if !strings.Contains(prom, m) {
			t.Fatalf("exposition missing %s:\n%s", m, prom)
		}
	}
}

// TestStalenessCoversInFlightAndParkedOps: with the backend gated, the
// watermark must see both the op stuck in apply and the ops still
// queued; SimulateNodeFailure must release the queued ops' entries
// (they will never reach a commit-loop terminal).
func TestStalenessCoversInFlightAndParkedOps(t *testing.T) {
	gate := make(chan struct{})
	o := obs.New()
	e := newEnvDeps(t, 1, func(cfg *RegionConfig) {
		cfg.CommitBatchSize = 1
	}, func(d *Deps) {
		d.Obs = o
		prev := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &gatedBackend{Backend: prev(node), gate: gate}
		}
	})
	c := e.client(t, "node0")

	var at vclock.Time
	for i := 0; i < 4; i++ {
		var err error
		at, err = c.Create(at, fmt.Sprintf("/w/gated%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the commit process to pop the first op and block on the
	// gate; the remaining three stay queued.
	deadline := time.Now().Add(5 * time.Second)
	for e.region.QueueDepth() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 3", e.region.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	if e.region.MaxStaleness() <= 0 {
		t.Fatal("MaxStaleness zero with ops in flight")
	}
	if age(e.region.byName["node0"].inflight.oldest("")) <= 0 {
		t.Fatal("oldest unacked op on node0 has no age with ops in flight")
	}
	if e.region.QueueHeadAge() <= 0 {
		t.Fatal("QueueHeadAge zero with queued ops")
	}
	if !e.region.PathPending("/w/gated2") {
		t.Fatal("PathPending false for a queued op")
	}
	if e.region.OldestPendingAge("/w/gated2") <= 0 {
		t.Fatal("OldestPendingAge zero for a queued op")
	}

	// In-flight work past the degraded threshold must surface in Health.
	h := e.region.health(healthThresholds{degradedNS: 1})
	if h.Status < HealthDegraded {
		t.Fatalf("health %v with stale pipeline and 1ns threshold, want ≥ degraded", h.Status)
	}
	if len(h.Reasons) == 0 {
		t.Fatal("degraded health carries no reasons")
	}

	// Node failure discards the three queued ops; their tracker and lag
	// entries must be released or the watermark would stay pinned.
	if lost := e.region.SimulateNodeFailure("node0"); lost != 3 {
		t.Fatalf("SimulateNodeFailure lost %d ops, want 3", lost)
	}
	if e.region.PathPending("/w/gated2") {
		t.Fatal("PathPending true after the op was lost with its node")
	}

	close(gate)
	// Only the in-flight create remains; once it lands the region must
	// read fully converged again.
	deadline = time.Now().Add(5 * time.Second)
	for e.region.MaxStaleness() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("MaxStaleness still %d after gate release", e.region.MaxStaleness())
		}
		time.Sleep(time.Millisecond)
	}
}

// failBackend fails the commit side with a permanent (non-resubmittable)
// error, driving the backend_error drops: every metadata op of every
// batch, or — writes set — every file of every wave's data write instead,
// metadata passing.
type failBackend struct {
	Backend
	err    error
	writes bool
}

func (f *failBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	if f.writes {
		return f.Backend.ApplyBatch(at, ops)
	}
	return refused(len(ops), f.err), at, nil
}

func (f *failBackend) WriteBatch(at vclock.Time, files []fsapi.FileWrite) ([]error, vclock.Time, error) {
	if f.writes {
		return refused(len(files), f.err), at, nil
	}
	return f.Backend.WriteBatch(at, files)
}

// TestDropReasonCounters: a permanently failing commit must land in the
// per-reason drop counters, not just the aggregate — whether it is the
// op that fails or, after its create committed, the write-back of a
// small file's acked bytes.
func TestDropReasonCounters(t *testing.T) {
	for _, writes := range []bool{false, true} {
		t.Run(fmt.Sprintf("writes=%v", writes), func(t *testing.T) {
			o := obs.New()
			e := newEnvDeps(t, 1, nil, func(d *Deps) {
				d.Obs = o
				prev := d.NewBackend
				d.NewBackend = func(node string) Backend {
					return &failBackend{Backend: prev(node), err: errors.New("media failure"), writes: writes}
				}
			})
			c := e.client(t, "node0")

			// Create and write reach the commit process in one dequeue
			// and coalesce into a create carrying the bytes: its commit
			// is the metadata op and then its share of the wave's bytes.
			release := holdCommits(t, e.region)
			at, err := c.Create(0, "/w/doomed", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if at, err = c.WriteAt(at, "/w/doomed", 0, []byte("acked")); err != nil {
				t.Fatal(err)
			}
			release()
			if _, err := e.region.Drain(at); err != nil {
				t.Fatal(err)
			}

			byReason := e.region.DroppedByReason()
			if byReason[dropReasonBackendError] != 1 {
				t.Fatalf("backend_error drops = %v, want 1", byReason)
			}
			var total int64
			for _, n := range byReason {
				total += n
			}
			if got := e.region.Stats().Dropped; got != total {
				t.Fatalf("dropped total %d != sum of reasons %d (%v)", got, total, byReason)
			}
			if exists := e.dfs.MDS.Tree().Exists("/w/doomed"); exists != writes {
				t.Fatalf("/w/doomed on the DFS = %v, want %v", exists, writes)
			}
			var sb strings.Builder
			o.WriteProm(&sb)
			if !strings.Contains(sb.String(), "pacon_ops_dropped_backend_error_total 1") {
				t.Fatalf("exposition missing the per-reason drop counter:\n%s", sb.String())
			}
		})
	}
}

// TestHealthVerdicts: the typed status must fold in the recorded audit
// verdict, and a clean idle region must read ok.
func TestHealthVerdicts(t *testing.T) {
	e := newEnv(t, 1, nil)

	h := e.region.Health()
	if h.Status != HealthOK {
		t.Fatalf("idle region health %v (%v), want ok", h.Status, h.Reasons)
	}
	if _, ok := e.region.LastAudit(); ok {
		t.Fatal("LastAudit set before any audit ran")
	}

	e.region.RecordAudit(AuditVerdict{Sampled: 10, Matched: 8, Divergent: 2})
	h = e.region.Health()
	if h.Status != HealthStalled {
		t.Fatalf("health %v with divergent audit, want stalled", h.Status)
	}
	if h.LastAudit == nil || h.LastAudit.Divergent != 2 {
		t.Fatalf("health does not carry the audit verdict: %+v", h.LastAudit)
	}
	if got := HealthStalled.String(); got != "stalled" {
		t.Fatalf("HealthStalled renders %q", got)
	}
}

// TestRegisterMetricsIdempotentAcrossRegions: a region restart
// (checkpoint/restore, tests) re-registers every gauge and counter on
// the shared registry; names must be replaced, not duplicated, and the
// exposition must read the live region.
func TestRegisterMetricsIdempotentAcrossRegions(t *testing.T) {
	o := obs.New()
	newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	e2 := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	c := e2.client(t, "node0")
	at, err := c.Create(0, "/w/second-region", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	o.WriteProm(&sb)
	prom := sb.String()
	if n := strings.Count(prom, "# TYPE pacon_queue_depth gauge"); n != 1 {
		t.Fatalf("queue_depth registered %d times, want 1:\n%s", n, prom)
	}
	if n := strings.Count(prom, "# TYPE pacon_max_staleness_ns gauge"); n != 1 {
		t.Fatalf("max_staleness_ns registered %d times, want 1", n)
	}

	// Publishing the same expvar name from many goroutines must be safe
	// (expvar.Publish panics on duplicates; the publisher serializes).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.PublishExpvar("pacon-test-idempotent")
		}()
	}
	wg.Wait()
	if expvar.Get("pacon-test-idempotent") == nil {
		t.Fatal("expvar not published")
	}
}

// TestSampleCommittedReadsCleanEntriesOnly: the divergence auditor's
// sample is the region's clean entries — never a dirty entry, a removed
// marker or a value that does not decode — at most limit of them (0: all),
// each a copy of what its cache server holds.
func TestSampleCommittedReadsCleanEntriesOnly(t *testing.T) {
	e := newEnv(t, 2, nil)
	clean := cacheVal{stat: fileStat(2, "ab")}
	for i, kv := range []struct {
		key string
		val []byte
	}{
		{"/w/c1", clean.encode()},
		{"/w/c2", clean.encode()},
		{"/w/c3", clean.encode()},
		{"/w/dirty", cacheVal{dirty: true, seq: 4, stat: fileStat(2, "ab")}.encode()},
		{"/w/marker", cacheVal{dirty: true, removed: true, seq: 5, stat: fileStat(2, "")}.encode()},
		{"/w/garbled", []byte{hdrDirty}},
	} {
		if _, _, err := e.region.nodes[i%2].cache.Add(0, kv.key, kv.val, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, ent := range e.region.SampleCommitted(0) {
		got = append(got, ent.Path)
		if ent.Path != "/w" && string(ent.Stat.Inline) != "ab" {
			t.Fatalf("%s sampled with inline %q", ent.Path, ent.Stat.Inline)
		}
		if len(ent.Stat.Inline) > 0 {
			ent.Stat.Inline[0] = 'X'
		}
	}
	sort.Strings(got)
	if want := []string{"/w", "/w/c1", "/w/c2", "/w/c3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sampled %v, want %v", got, want)
	}
	if item, _, err := e.region.nodes[0].cache.Get(0, "/w/c1"); err != nil || !bytes.Equal(item.Value, clean.encode()) {
		t.Fatalf("a sampled entry's bytes alias the server's: %x, %v", item.Value, err)
	}
	if n := len(e.region.SampleCommitted(2)); n != 2 {
		t.Fatalf("a sample of at most 2 held %d", n)
	}
}
