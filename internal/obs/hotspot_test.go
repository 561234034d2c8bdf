package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSpaceSavingExactBelowCapacity: under capacity the sketch is an
// exact counter with zero error bounds and deterministic Top order
// (count desc, path asc on ties).
func TestSpaceSavingExactBelowCapacity(t *testing.T) {
	s := NewSpaceSaving(8)
	s.Inc("/a", 3)
	s.Inc("/b", 1)
	s.Inc("/c", 3)
	s.Inc("/b", 1)
	top := s.Top(0)
	want := []HotKey{
		{Path: "/a", Count: 3, Share: 3.0 / 8},
		{Path: "/c", Count: 3, Share: 3.0 / 8},
		{Path: "/b", Count: 2, Share: 2.0 / 8},
	}
	if len(top) != len(want) {
		t.Fatalf("got %d entries, want %d", len(top), len(want))
	}
	for i, hk := range top {
		if hk != want[i] {
			t.Fatalf("top[%d] = %+v, want %+v", i, hk, want[i])
		}
	}
	if s.Total() != 8 || s.Evictions() != 0 {
		t.Fatalf("total=%d evictions=%d, want 8/0", s.Total(), s.Evictions())
	}
}

// TestSpaceSavingEvictionUnderChurn: a heavy hitter must stay resident
// while a stream of unique keys churns a full sketch, the resident set
// stays bounded, and evicted-slot inheritance keeps counts as upper
// bounds (count - ErrBound ≤ true ≤ count).
func TestSpaceSavingEvictionUnderChurn(t *testing.T) {
	const cap = 16
	s := NewSpaceSaving(cap)
	for i := 0; i < 100; i++ {
		s.Inc("/hot", 1)
		s.Inc(fmt.Sprintf("/churn/%d", i), 1)
	}
	if got := s.Len(); got > cap {
		t.Fatalf("sketch grew past capacity: %d > %d", got, cap)
	}
	if s.Evictions() == 0 {
		t.Fatal("expected evictions under churn")
	}
	top := s.Top(1)
	if len(top) == 0 || top[0].Path != "/hot" {
		t.Fatalf("heavy hitter evicted: top = %+v", top)
	}
	if top[0].Count < 100 {
		t.Fatalf("count %d is not an upper bound of true 100", top[0].Count)
	}
	if low := top[0].Count - top[0].ErrBound; low > 100 {
		t.Fatalf("guaranteed lower bound %d exceeds true count 100", low)
	}
	// Space-saving guarantee: any key with true count ≥ total/cap is
	// resident; /hot has 100 of 200 total, far above 200/16.
	if s.Total() != 200 {
		t.Fatalf("total = %d, want 200", s.Total())
	}
}

// TestMergeSketches: counts and totals sum across per-node sketches,
// disjoint and overlapping keys both merge, and the merged view keeps
// only the top-capacity keys.
func TestMergeSketches(t *testing.T) {
	a := NewSpaceSaving(8)
	b := NewSpaceSaving(8)
	a.Inc("/x", 5)
	a.Inc("/y", 2)
	b.Inc("/x", 4)
	b.Inc("/z", 3)
	m := MergeSketches(8, a, b, nil)
	if m.Total() != 14 {
		t.Fatalf("merged total = %d, want 14", m.Total())
	}
	top := m.Top(0)
	want := map[string]int64{"/x": 9, "/z": 3, "/y": 2}
	if len(top) != 3 {
		t.Fatalf("merged entries = %d, want 3", len(top))
	}
	for _, hk := range top {
		if want[hk.Path] != hk.Count {
			t.Fatalf("merged %s = %d, want %d", hk.Path, hk.Count, want[hk.Path])
		}
	}
	if top[0].Path != "/x" {
		t.Fatalf("merged top = %s, want /x", top[0].Path)
	}

	// Capacity bound: merging wide sketches keeps only the heaviest.
	wide1, wide2 := NewSpaceSaving(64), NewSpaceSaving(64)
	for i := 0; i < 40; i++ {
		wide1.Inc(fmt.Sprintf("/w1/%d", i), int64(i+1))
		wide2.Inc(fmt.Sprintf("/w2/%d", i), int64(i+1))
	}
	bounded := MergeSketches(10, wide1, wide2)
	if got := bounded.Len(); got != 10 {
		t.Fatalf("bounded merge kept %d keys, want 10", got)
	}
	if top := bounded.Top(1); top[0].Count != 40 {
		t.Fatalf("bounded merge top count = %d, want 40", top[0].Count)
	}
}

// TestSketchZipfRecall: on a synthetic zipf stream (s=1.2, 1024-key
// space, 200k draws) a 256-slot sketch must recall at least 90% of the
// true top-16 — the same bar the bench acceptance applies end to end.
func TestSketchZipfRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.2, 1, 1023)
	s := NewSpaceSaving(DefaultHotPathCap)
	for i := 0; i < 200_000; i++ {
		s.Inc(fmt.Sprintf("/k/%d", z.Uint64()), 1)
	}
	top := s.Top(16)
	hit := 0
	for _, hk := range top {
		var rank int
		if _, err := fmt.Sscanf(hk.Path, "/k/%d", &rank); err == nil && rank < 16 {
			hit++
		}
	}
	if recall := float64(hit) / 16; recall < 0.9 {
		t.Fatalf("zipf recall = %.2f, want ≥ 0.9 (top: %+v)", recall, top)
	}
}

// TestSketchConcurrent exercises record/read/merge races; run with
// -race this is the concurrency-safety test the satellite asks for.
func TestSketchConcurrent(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := o.Node(fmt.Sprintf("node%d", g))
			for i := 0; i < 2000; i++ {
				touch(n, "stat", fmt.Sprintf("/w/d%d/f%d", g, i%37))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = o.TopPaths(8)
			_ = o.HotSubtrees(4, 0.01)
			_ = o.HotNodeLoads()
			_ = o.HotReport(8, 0.01)
		}
	}()
	wg.Wait()
	loads := o.HotNodeLoads()
	if len(loads) != 4 {
		t.Fatalf("nodes recorded = %d, want 4", len(loads))
	}
	var total int64
	for _, l := range loads {
		total += l.Ops
	}
	if total != 4*2000 {
		t.Fatalf("recorded ops = %d, want %d", total, 4*2000)
	}
}

// TestHotSubtreesAttribution: ancestors roll up per op (root excluded),
// shares are against the op total, the minShare filter prunes, and
// results are deterministically ordered.
func TestHotSubtreesAttribution(t *testing.T) {
	o := New()
	n := o.Node("node0")
	for i := 0; i < 90; i++ {
		touch(n, "stat", fmt.Sprintf("/w/hot/f%d", i%3))
	}
	// One call naming several paths credits each of them.
	touch(n, "statmulti", "/w/cold/f0", "/w/cold/f1", "/w/cold/f2", "/w/cold/f3", "/w/cold/f4")
	for i := 5; i < 10; i++ {
		touch(n, "stat", fmt.Sprintf("/w/cold/f%d", i))
	}
	subs := o.HotSubtrees(0, 0.5)
	// /w carries 100% of 100 ops, /w/hot 90%; /w/cold (10%) is filtered.
	if len(subs) != 2 {
		t.Fatalf("subtrees = %+v, want [/w /w/hot]", subs)
	}
	if subs[0].Path != "/w" || subs[0].Share != 1.0 {
		t.Fatalf("subs[0] = %+v, want /w at share 1.0", subs[0])
	}
	if subs[1].Path != "/w/hot" || subs[1].Share != 0.9 {
		t.Fatalf("subs[1] = %+v, want /w/hot at share 0.9", subs[1])
	}
	// The report folds the same tables together.
	rep := o.HotReport(4, 0.5)
	if rep == nil || rep.TotalOps != 100 || len(rep.NodeOps) != 1 || rep.NodeOps[0].Node != "node0" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.NodeSkew.MaxMeanPermille != 1000 || rep.NodeSkew.CVPermille != 0 {
		t.Fatalf("single-node skew = %+v, want flat 1000/0", rep.NodeSkew)
	}

	// A batch credits shared ancestors per run of same-parent paths; the
	// totals must equal one credit per path per ancestor however the
	// batch interleaves its directories.
	touch(n, "statmulti", "/w/a/x", "/w/a/y", "/w/b/z", "/w/a/x")
	got := map[string]int64{}
	for _, hk := range o.HotSubtrees(0, 0) {
		got[hk.Path] = hk.Count
	}
	for path, want := range map[string]int64{"/w": 104, "/w/cold": 10, "/w/a": 3, "/w/b": 1} {
		if got[path] != want {
			t.Fatalf("subtree %s credited %d, want %d (all: %v)", path, got[path], want, got)
		}
	}
	if rep := o.HotReport(1, 0); rep.TotalOps != 104 {
		t.Fatalf("path records = %d, want 104", rep.TotalOps)
	}
}

// TestSkew pins the imbalance math: permille encodings of max/mean and
// the coefficient of variation, and the degenerate cases.
func TestSkew(t *testing.T) {
	cases := []struct {
		name  string
		loads []int64
		want  SkewStats
	}{
		{"empty", nil, SkewStats{}},
		{"zeros", []int64{0, 0}, SkewStats{N: 2}},
		{"single", []int64{7}, SkewStats{N: 1, Total: 7, MaxMeanPermille: 1000, CVPermille: 0}},
		{"balanced", []int64{10, 10, 10, 10}, SkewStats{N: 4, Total: 40, MaxMeanPermille: 1000, CVPermille: 0}},
		// mean 100; max 250 → 2500; stddev = sqrt((150²+50²+50²+50²)/4) ≈ 86.6 → 866.
		{"skewed", []int64{250, 50, 50, 50}, SkewStats{N: 4, Total: 400, MaxMeanPermille: 2500, CVPermille: 866}},
	}
	for _, tc := range cases {
		if got := Skew(tc.loads); got != tc.want {
			t.Errorf("%s: Skew(%v) = %+v, want %+v", tc.name, tc.loads, got, tc.want)
		}
	}
}

// TestHotspotNilSafety: every hotspot entry point tolerates nil
// receivers — the disabled-observability configuration.
func TestHotspotNilSafety(t *testing.T) {
	var o *Obs
	touch(o.Node("n"), "stat", "/w/x") // nil node: must not panic
	if o.TopPaths(4) != nil || o.HotSubtrees(4, 0) != nil || o.HotNodeLoads() != nil || o.HotReport(4, 0) != nil {
		t.Fatal("nil obs hotspot queries must return nil")
	}
	var s *SpaceSaving
	s.Inc("/x", 1)
	if s.Len() != 0 || s.Total() != 0 || s.Evictions() != 0 || s.Top(1) != nil {
		t.Fatal("nil sketch must read as empty")
	}
	// An enabled registry with no recorded ops reports no hotspots.
	if rep := New().HotReport(4, 0); rep != nil {
		t.Fatalf("empty registry report = %+v, want nil", rep)
	}
}

// TestFlightDumpCarriesHotspots: a triggered dump embeds the hotspot
// tables alongside the spans.
func TestFlightDumpCarriesHotspots(t *testing.T) {
	o := New()
	n := o.Node("node0")
	for i := 0; i < 20; i++ {
		touch(n, "stat", "/w/hot/f")
	}
	b := o.TriggerFlight("test_hotspot")
	if b == nil {
		t.Fatal("trigger returned no dump")
	}
	var dump FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if dump.Hotspots == nil || dump.Hotspots.TotalOps != 20 {
		t.Fatalf("dump.Hotspots = %+v, want 20 ops", dump.Hotspots)
	}
	if len(dump.Hotspots.TopPaths) == 0 || dump.Hotspots.TopPaths[0].Path != "/w/hot/f" {
		t.Fatalf("dump top paths = %+v", dump.Hotspots.TopPaths)
	}
}
