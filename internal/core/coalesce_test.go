package core

import (
	"fmt"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// --- mergeOps: one test per legality rule -------------------------------

func TestMergeCreateSetStat(t *testing.T) {
	for _, kind := range []OpKind{OpCreate, OpMkdir} {
		prev := Op{Kind: kind, Path: "/w/a", Stat: fsapi.Stat{Size: 1}, Seq: 1, Time: 10, AfterRm: true}
		next := Op{Kind: OpSetStat, Path: "/w/a", Stat: fsapi.Stat{Size: 9}, Seq: 2, Time: 20}
		m, ok := mergeOps(prev, next)
		if !ok {
			t.Fatalf("%v+setstat did not merge", kind)
		}
		if m.Kind != kind || m.Stat.Size != 9 || m.Seq != 2 || m.Time != 20 {
			t.Fatalf("%v+setstat merged to %+v", kind, m)
		}
		if !m.AfterRm {
			t.Fatalf("%v+setstat dropped AfterRm — the ErrExist disambiguation would break", kind)
		}
	}
}

func TestMergeSetStatSetStat(t *testing.T) {
	prev := Op{Kind: OpSetStat, Path: "/w/a", Stat: fsapi.Stat{Size: 1}, Seq: 1, Time: 30}
	next := Op{Kind: OpSetStat, Path: "/w/a", Stat: fsapi.Stat{Size: 2}, Seq: 2, Time: 20}
	m, ok := mergeOps(prev, next)
	if !ok || m.Kind != OpSetStat || m.Stat.Size != 2 || m.Seq != 2 {
		t.Fatalf("setstat+setstat = %+v, %v", m, ok)
	}
	if m.Time != 30 {
		t.Fatalf("merged time %d regressed below the pair's max 30", m.Time)
	}
}

func TestMergeSetStatRemove(t *testing.T) {
	prev := Op{Kind: OpSetStat, Path: "/w/a", Seq: 1, Time: 10}
	next := Op{Kind: OpRemove, Path: "/w/a", Seq: 2, Time: 20}
	m, ok := mergeOps(prev, next)
	if !ok || m.Kind != OpRemove || m.Seq != 2 || m.NetAbsent {
		t.Fatalf("setstat+remove = %+v, %v (remove must stay a real remove: the setstat's object exists on the DFS)", m, ok)
	}
}

func TestMergeCreateRemoveAnnihilates(t *testing.T) {
	prev := Op{Kind: OpCreate, Path: "/w/a", Seq: 1, Time: 10}
	next := Op{Kind: OpRemove, Path: "/w/a", Seq: 2, Time: 20}
	m, ok := mergeOps(prev, next)
	if !ok || m.Kind != OpRemove || !m.NetAbsent {
		t.Fatalf("create+remove = %+v, %v — expected a net-absence remove", m, ok)
	}
	if m.Seq != 2 || m.Time != 20 {
		t.Fatalf("net-absence remove lost seq/time: %+v", m)
	}
}

func TestMergeCreateAfterRmRemoveRefused(t *testing.T) {
	// The create replaced a removed marker: an older incarnation's remove
	// may still be queued on another node, and annihilating here would
	// strand it retrying against an absent path.
	prev := Op{Kind: OpCreate, Path: "/w/a", Seq: 3, Time: 10, AfterRm: true}
	next := Op{Kind: OpRemove, Path: "/w/a", Seq: 4, Time: 20}
	if m, ok := mergeOps(prev, next); ok {
		t.Fatalf("create(after-rm)+remove merged to %+v — unsound", m)
	}
}

func TestMergeRemoveNeverPrev(t *testing.T) {
	prev := Op{Kind: OpRemove, Path: "/w/a", Seq: 1, Time: 10}
	for _, next := range []Op{
		{Kind: OpCreate, Path: "/w/a", Seq: 2, Time: 20},
		{Kind: OpSetStat, Path: "/w/a", Seq: 2, Time: 20},
		{Kind: OpRemove, Path: "/w/a", Seq: 2, Time: 20},
	} {
		if m, ok := mergeOps(prev, next); ok {
			t.Fatalf("remove+%v merged to %+v — a remove must commit before its successor", next.Kind, m)
		}
	}
}

// --- coalesceOps: batch-level behaviour ---------------------------------

func TestCoalesceChainCollapsesToOne(t *testing.T) {
	ops := []Op{
		{Kind: OpCreate, Path: "/w/a", Seq: 1, Time: 1},
		{Kind: OpSetStat, Path: "/w/b", Seq: 1, Time: 2},
		{Kind: OpSetStat, Path: "/w/a", Stat: fsapi.Stat{Size: 5}, Seq: 2, Time: 3},
		{Kind: OpSetStat, Path: "/w/a", Stat: fsapi.Stat{Size: 7}, Seq: 3, Time: 4},
	}
	out, merged := coalesceOps(ops, nil, nil)
	if merged != 2 || len(out) != 2 {
		t.Fatalf("got %d ops, %d merged: %+v", len(out), merged, out)
	}
	if out[0].Kind != OpCreate || out[0].Path != "/w/a" || out[0].Stat.Size != 7 || out[0].Seq != 3 {
		t.Fatalf("chain collapsed to %+v, want create carrying the final stat", out[0])
	}
	if out[1].Path != "/w/b" {
		t.Fatalf("unrelated path disturbed: %+v", out[1])
	}
}

func TestCoalesceCreateSetStatRemoveIsNetAbsent(t *testing.T) {
	ops := []Op{
		{Kind: OpCreate, Path: "/w/a", Seq: 1, Time: 1},
		{Kind: OpSetStat, Path: "/w/a", Seq: 2, Time: 2},
		{Kind: OpRemove, Path: "/w/a", Seq: 3, Time: 3},
	}
	out, merged := coalesceOps(ops, nil, nil)
	if merged != 2 || len(out) != 1 || out[0].Kind != OpRemove || !out[0].NetAbsent {
		t.Fatalf("create+setstat+remove = %+v (merged %d), want one net-absence remove", out, merged)
	}
}

func TestCoalesceRemoveCreateStaysTwo(t *testing.T) {
	ops := []Op{
		{Kind: OpRemove, Path: "/w/a", Seq: 1, Time: 1},
		{Kind: OpCreate, Path: "/w/a", Seq: 2, Time: 2, AfterRm: true},
		{Kind: OpSetStat, Path: "/w/a", Stat: fsapi.Stat{Size: 3}, Seq: 3, Time: 3},
	}
	out, merged := coalesceOps(ops, nil, nil)
	if merged != 1 || len(out) != 2 {
		t.Fatalf("got %+v (merged %d), want remove then create", out, merged)
	}
	if out[0].Kind != OpRemove || out[1].Kind != OpCreate || !out[1].AfterRm || out[1].Stat.Size != 3 {
		t.Fatalf("remove/create ordering broken: %+v", out)
	}
}

func TestCoalesceSingletonUntouched(t *testing.T) {
	ops := []Op{{Kind: OpCreate, Path: "/w/a", Seq: 1}}
	out, merged := coalesceOps(ops, nil, nil)
	if merged != 0 || len(out) != 1 {
		t.Fatalf("singleton batch changed: %+v, %d", out, merged)
	}
}

// --- region-level: round-trip reduction ---------------------------------

// runCommitWorkload creates files, rewrites each once and removes a
// quarter of them, then drains, returning the region's commit-path
// stats. The commit side is parked while the client runs, so every
// dequeue finds a full queue and the batch boundaries — and with them
// every counter — are the same on every run.
func runCommitWorkload(t *testing.T) RegionStats {
	t.Helper()
	e := newEnv(t, 2, nil)
	c := e.client(t, "node0")
	release := holdCommits(t, e.region)
	at := vclock.Time(0)
	var err error
	const files = 24
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/w/f%02d", i)
		if at, err = c.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		if at, err = c.WriteAt(at, p, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if at, err = c.Remove(at, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	release()
	if _, err := e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	return e.region.Stats()
}

// TestCommitPathRoundTripBudget pins what the commit path spends on the
// 24-file workload: 54 client ops coalesce to 27 commits in 7 waves,
// costing 14 cache round trips (one mutate_multi per wave to each of the
// region's two cache servers) and 14 backend round trips (7 apply_batch
// and, each wave owing bytes, 7 WriteBatch; a WriteAt per small file
// made it 25). The budget has no slack upward: a change that adds a
// round trip per op must show up here. (One conditional op per commit
// spent 27 cache round trips on the same workload; the retired
// client-side Get+CAS loop without coalescing, 78 over 54 commits.)
func TestCommitPathRoundTripBudget(t *testing.T) {
	s := runCommitWorkload(t)
	if s.Committed == 0 || s.Dropped != 0 {
		t.Fatalf("workload did not commit cleanly: %+v", s)
	}
	if s.Coalesced == 0 {
		t.Fatalf("run never coalesced: %+v", s)
	}
	if s.BatchRPCs == 0 || s.BatchedOps == 0 {
		t.Fatalf("run never used apply_batch: %+v", s)
	}
	if limit := s.BatchRPCs * 2; s.BatchRPCs != 7 || s.CacheRPCs > limit {
		t.Fatalf("commit path spent %d cache round trips over %d waves, budget 7 waves x 2 cache servers: %+v", s.CacheRPCs, s.BatchRPCs, s)
	}
	if s.BackendRPCs > 14 {
		t.Fatalf("commit path spent %d backend round trips, budget 7 waves x (apply_batch + WriteBatch): %+v", s.BackendRPCs, s)
	}
}
