package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// TestCreateCriticalPath drives one sampled create through the full
// pipeline with server-side tracing wired (bus observer set) and checks
// the assembled cross-node critical path: the kept span's segment
// attribution must sum to the span total (the acceptance bound is 5%;
// the charge-every-gap construction makes it exact), and the timeline
// must carry events from more than one node — the client node plus the
// cache servers and/or the MDS the commit touched.
func TestCreateCriticalPath(t *testing.T) {
	o := obs.New()
	o.SetSampleN(1) // sample every op: the test needs this span
	e := newEnvDeps(t, 2, nil, func(d *Deps) { d.Obs = o })
	e.bus.SetObserver(o)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/traced", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	var cp obs.CritPath
	found := false
	for _, kept := range o.RecentSpans(0) {
		if kept.Op == "create" && kept.Path == "/w/traced" {
			cp, found = kept, true
			break
		}
	}
	if !found {
		t.Fatalf("no kept span for the create; kept=%+v", o.RecentSpans(0))
	}
	if cp.Kept != obs.KeptSampled {
		t.Fatalf("span kept=%q, want %q", cp.Kept, obs.KeptSampled)
	}
	if len(cp.Events) < 3 {
		t.Fatalf("span has %d events, want the full lifecycle: %+v", len(cp.Events), cp.Events)
	}

	// Segment attribution sums to the total within 5% (exactly, here).
	var sum time.Duration
	for _, s := range cp.Segments {
		sum += s.D
	}
	if cp.Total <= 0 {
		t.Fatalf("span total = %v, want > 0", cp.Total)
	}
	diff := sum - cp.Total
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(cp.Total) {
		t.Fatalf("segments sum %v vs total %v: off by more than 5%%", sum, cp.Total)
	}

	// Cross-node evidence: the client node plus at least one service
	// address (cache server or MDS) contributed events to the span.
	nodes := map[string]bool{}
	for _, ev := range cp.Events {
		nodes[ev.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("span events all from one node %v; want cross-node timeline: %+v", nodes, cp.Events)
	}
	if !nodes["node0"] {
		t.Fatalf("client node's events missing from span: %v", nodes)
	}
	server := false
	for n := range nodes {
		if strings.Contains(n, "/") {
			server = true
		}
	}
	if !server {
		t.Fatalf("no server-side (cache/MDS) events in span: %v", nodes)
	}

	// The lifecycle segments the commit pipeline charges must be
	// present: queue residency and the DFS apply.
	segs := map[string]time.Duration{}
	for _, s := range cp.Segments {
		segs[s.Name] = s.D
	}
	if _, ok := segs[obs.SegQueueWait]; !ok {
		t.Fatalf("no queue_wait attribution: %+v", cp.Segments)
	}
	if _, ok := segs[obs.SegDFSApply]; !ok {
		t.Fatalf("no dfs_apply attribution: %+v", cp.Segments)
	}
}

// failCreateBackend refuses every op the commit side sends while armed,
// with the resubmittable error the commit process parks on.
type failCreateBackend struct {
	Backend
	armed atomic.Bool
}

func (f *failCreateBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	if !f.armed.Load() {
		return f.Backend.ApplyBatch(at, ops)
	}
	return refused(len(ops), fsapi.ErrNotExist), at, nil
}

// TestStalledHealthFlightDump forces a region into the stalled state (a
// DFS backend that fails every create keeps the op unacked while
// wall-clock staleness blows a 1ns threshold) and checks the worsening
// health transition fires the flight recorder, with the stuck op's
// cross-node span evidence inside the dump.
func TestStalledHealthFlightDump(t *testing.T) {
	o := obs.New()
	o.SetSampleN(1)
	var (
		backendsMu sync.Mutex
		backends   []*failCreateBackend
	)
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		d.Obs = o
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			// Called from region init, commit goroutines and clients
			// alike — the bookkeeping needs its own lock.
			fb := &failCreateBackend{Backend: inner(node)}
			fb.armed.Store(true)
			backendsMu.Lock()
			backends = append(backends, fb)
			backendsMu.Unlock()
			return fb
		}
	})
	e.bus.SetObserver(o)
	c := e.client(t, "node0")

	at, err := c.Create(0, "/w/stall", 0o644)
	if err != nil {
		t.Fatal(err)
	}

	// The op is enqueued and unackable; with a 1ns stalled threshold the
	// first health evaluation that sees positive staleness reports
	// stalled, and the ok→stalled transition cuts the dump.
	thr := healthThresholds{degradedNS: 1, stalledNS: 1}
	deadline := time.Now().Add(5 * time.Second)
	var h Health
	for {
		h = e.region.health(thr)
		if h.Status == HealthStalled && o.LastFlight() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("region never reported stalled with a flight dump: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}

	var dump obs.FlightDump
	if err := json.Unmarshal(o.LastFlight(), &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if dump.Reason != "health_stalled" {
		t.Fatalf("dump reason = %q, want health_stalled", dump.Reason)
	}

	// The triggering op's span must be present with cross-node events:
	// the client node's stage events plus the cache server's handler
	// events recorded over the bus.
	var span uint64
	for _, ev := range dump.Events {
		if ev.Path == "/w/stall" {
			span = ev.Span
			break
		}
	}
	if span == 0 {
		t.Fatalf("stuck op's events missing from dump (%d events)", len(dump.Events))
	}
	nodes := map[string]bool{}
	for _, ev := range dump.Events {
		if ev.Span == span {
			nodes[ev.Node] = true
		}
	}
	if len(nodes) < 2 {
		t.Fatalf("dump span %d has single-node evidence %v, want cross-node", span, nodes)
	}

	// Heal the backend and converge so teardown is clean.
	backendsMu.Lock()
	for _, fb := range backends {
		fb.armed.Store(false)
	}
	backendsMu.Unlock()
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDivergenceFlight: recording a divergent audit verdict must
// cut a flight dump immediately, without waiting for a health poll.
func TestAuditDivergenceFlight(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })

	e.region.RecordAudit(AuditVerdict{Sampled: 3, Divergent: 1})
	b := o.LastFlight()
	if b == nil {
		t.Fatal("divergent audit did not trigger the flight recorder")
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "audit_divergence" {
		t.Fatalf("dump reason = %q, want audit_divergence", dump.Reason)
	}

	// A clean verdict must not fire it (and the rate limiter would
	// suppress a repeat anyway — check via the counter).
	before := o.TraceStats().FlightDumps
	e.region.RecordAudit(AuditVerdict{Sampled: 3, Matched: 3})
	if got := o.TraceStats().FlightDumps; got != before {
		t.Fatalf("clean audit changed flight_dumps %d → %d", before, got)
	}
}

// TestEntryPointsInstrumentedAlike: each of the 11 public op entry
// points, called once with every op sampled, yields exactly one
// client_op sample, one finalized span named after the op the caller
// invoked (not after an entry point it calls internally), and one
// hot-path sketch record per path it names.
func TestEntryPointsInstrumentedAlike(t *testing.T) {
	multi := make([]string, 16)
	for i := range multi {
		multi[i] = fmt.Sprintf("/w/m%02d", i)
	}
	mkfile := func(p string) func(*testing.T, *Client) {
		return func(t *testing.T, c *Client) {
			t.Helper()
			at, err := c.Create(0, p, 0o644)
			if err == nil {
				_, err = c.WriteAt(at, p, 0, []byte("data"))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		op    string
		paths int
		prep  func(*testing.T, *Client)
		call  func(*Client) error
	}{
		{"mkdir", 1, nil, func(c *Client) error { _, err := c.Mkdir(0, "/w/d", 0o755); return err }},
		{"create", 1, nil, func(c *Client) error { _, err := c.Create(0, "/w/f", 0o644); return err }},
		{"stat", 1, mkfile("/w/f"), func(c *Client) error { _, _, err := c.Stat(0, "/w/f"); return err }},
		{"statmulti", len(multi), func(t *testing.T, c *Client) {
			for _, p := range multi {
				mkfile(p)(t, c)
			}
		}, func(c *Client) error {
			res, _, err := c.StatMulti(0, multi)
			for _, r := range res {
				if err == nil {
					err = r.Err
				}
			}
			return err
		}},
		{"rm", 1, mkfile("/w/f"), func(c *Client) error { _, err := c.Remove(0, "/w/f"); return err }},
		{"rmdir", 1, func(t *testing.T, c *Client) {
			if _, err := c.Mkdir(0, "/w/d", 0o755); err != nil {
				t.Fatal(err)
			}
			mkfile("/w/d/f")(t, c)
		}, func(c *Client) error { _, err := c.Rmdir(0, "/w/d"); return err }},
		{"readdir", 1, mkfile("/w/f"), func(c *Client) error { _, _, err := c.Readdir(0, "/w"); return err }},
		{"rename", 1, mkfile("/w/a"), func(c *Client) error { _, err := c.Rename(0, "/w/a", "/w/b"); return err }},
		{"write", 1, mkfile("/w/f"), func(c *Client) error { _, err := c.WriteAt(0, "/w/f", 0, []byte("more")); return err }},
		{"read", 1, mkfile("/w/f"), func(c *Client) error {
			b, _, err := c.ReadAt(0, "/w/f", 0, 4)
			if err == nil && string(b) != "data" {
				err = fmt.Errorf("read %q, want data", b)
			}
			return err
		}},
		{"fsync", 1, mkfile("/w/f"), func(c *Client) error { _, err := c.Fsync(0, "/w/f"); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			o := obs.New()
			o.SetSampleN(1)
			e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
			c := e.client(t, "node0")
			settle := func() (clientOps, sketched int64, spans map[uint64]obs.CritPath) {
				t.Helper()
				if _, err := e.region.Drain(0); err != nil {
					t.Fatal(err)
				}
				spans = map[uint64]obs.CritPath{}
				for _, cp := range o.RecentSpans(0) {
					spans[cp.Span] = cp
				}
				for _, l := range o.HotNodeLoads() {
					sketched += l.Ops
				}
				return o.HistQuantiles()[obs.HistClientOp].Count, sketched, spans
			}
			if tc.prep != nil {
				tc.prep(t, c)
			}
			ops0, sk0, spans0 := settle()
			if err := tc.call(c); err != nil {
				t.Fatal(err)
			}
			ops1, sk1, spans1 := settle()

			if got := ops1 - ops0; got != 1 {
				t.Errorf("client_op samples = %d, want 1", got)
			}
			if got := sk1 - sk0; got != int64(tc.paths) {
				t.Errorf("sketch records = %d, want %d", got, tc.paths)
			}
			var fresh []obs.CritPath
			for span, cp := range spans1 {
				if _, old := spans0[span]; !old {
					fresh = append(fresh, cp)
				}
			}
			if len(fresh) != 1 || fresh[0].Op != tc.op || fresh[0].Kept != obs.KeptSampled {
				t.Errorf("finalized spans = %+v, want one sampled %q span", fresh, tc.op)
			}
		})
	}
}

// TestNodeFailureClosesSpans: ops lost with a crashed node reach the one
// terminal hook like any other, so their sampled spans close with their
// tracker entries. Left open they would fill the assembler (1,024 active
// spans) and leave every later op unsampled for the life of the process.
func TestNodeFailureClosesSpans(t *testing.T) {
	o := obs.New()
	o.SetSampleN(1)
	e := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	e.bus.SetObserver(o)
	c := e.client(t, "node0")

	const queued = 1100 // past the assembler's active-span bound
	release := holdCommits(t, e.region)
	for i := 0; i < queued; i++ {
		if _, err := c.Create(0, fmt.Sprintf("/w/lost%04d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if lost := e.region.SimulateNodeFailure("node0"); lost != queued {
		t.Fatalf("node failure lost %d ops, want %d", lost, queued)
	}
	release()
	if age := e.region.MaxStaleness(); age != 0 {
		t.Fatalf("staleness watermark %dns after the queue was lost, want 0", age)
	}
	if e.region.PathPending("/w/lost0000") {
		t.Fatal("lost op still pending in the path tracker")
	}

	at, err := c.Create(0, "/w/after", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	for _, cp := range o.RecentSpans(0) {
		if cp.Path == "/w/after" && cp.Kept == obs.KeptSampled && len(cp.Segments) > 0 {
			return
		}
	}
	t.Fatalf("op after the failure was not assembled; newest kept span: %+v", o.RecentSpans(1))
}
