package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pacon/internal/obs"
)

// TestSkewHealthDegradedAndReset drives all client ops through one node
// of a two-node region and walks the sustained-imbalance rule end to
// end: gauges appear on the first poll, the onset poll stays ok, the
// sustained poll degrades with a hotspot-bearing flight dump, and
// rebalancing the load resets the rule back to ok.
func TestSkewHealthDegradedAndReset(t *testing.T) {
	o := obs.New()
	e := newEnvDeps(t, 2, nil, func(d *Deps) { d.Obs = o })
	c0 := e.client(t, "node0")
	c1 := e.client(t, "node1") // registers node1's recorder at zero ops

	at, err := c0.Create(0, "/w/hot", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	thr := healthThresholds{skewMaxMeanPermille: 1500, skewMinOps: 16, skewSustainNS: 1}

	// Below skewMinOps the rule must not even start its clock.
	if h := e.region.health(thr); h.Status != HealthOK {
		t.Fatalf("health %v below min-ops gate, want ok (%v)", h.Status, h.Reasons)
	}

	for i := 0; i < 63; i++ {
		if _, _, err := c0.Stat(at, "/w/hot"); err != nil {
			t.Fatal(err)
		}
	}

	// node0 carries 64 ops, node1 zero: max/mean = 2.0, CV = 1.0. The
	// first over-threshold poll stamps the onset but stays ok.
	h := e.region.health(thr)
	if h.Status != HealthOK {
		t.Fatalf("onset poll degraded immediately: %+v", h)
	}
	if h.NodeOpsMaxMeanPermille != 2000 || h.NodeOpsCVPermille != 1000 {
		t.Fatalf("skew gauges = %d/%d, want 2000/1000", h.NodeOpsMaxMeanPermille, h.NodeOpsCVPermille)
	}
	if h.HotPath != "/w/hot" || h.HotPathShare != 1.0 {
		t.Fatalf("hot path = %q at %.2f, want /w/hot at 1.00", h.HotPath, h.HotPathShare)
	}

	time.Sleep(2 * time.Millisecond) // exceed the 1ns sustain window
	h = e.region.health(thr)
	if h.Status != HealthDegraded {
		t.Fatalf("sustained imbalance not degraded: %+v", h)
	}
	if !strings.Contains(strings.Join(h.Reasons, ";"), "imbalance") {
		t.Fatalf("degraded without an imbalance reason: %v", h.Reasons)
	}

	// The ok→degraded transition cuts a flight dump carrying the top-K
	// tables alongside the spans.
	b := o.LastFlight()
	if b == nil {
		t.Fatal("worsening transition cut no flight dump")
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if dump.Reason != "health_degraded" {
		t.Fatalf("dump reason = %q, want health_degraded", dump.Reason)
	}
	if dump.Hotspots == nil || len(dump.Hotspots.TopPaths) == 0 || dump.Hotspots.TopPaths[0].Path != "/w/hot" {
		t.Fatalf("dump hotspot tables missing or wrong: %+v", dump.Hotspots)
	}

	// Balance the load: node1 serves the same volume, max/mean drops to
	// 1.0 (< 1500) and a single balanced poll resets the onset clock.
	for i := 0; i < 64; i++ {
		if _, _, err := c1.Stat(at, "/w/hot"); err != nil {
			t.Fatal(err)
		}
	}
	h = e.region.health(thr)
	if h.Status != HealthOK {
		t.Fatalf("balanced region still %v: %v", h.Status, h.Reasons)
	}
	if h.NodeOpsMaxMeanPermille != 1000 || h.NodeOpsCVPermille != 0 {
		t.Fatalf("balanced gauges = %d/%d, want 1000/0", h.NodeOpsMaxMeanPermille, h.NodeOpsCVPermille)
	}
}

// TestSkewHealthRequiresObsAndPeers: with observability off, or with no
// peers to be imbalanced against, the skew rule stays silent.
func TestSkewHealthRequiresObsAndPeers(t *testing.T) {
	// No obs: the hotspot hook is nil at one branch and Health reports
	// zero skew fields.
	e := newEnv(t, 2, nil)
	c := e.client(t, "node0")
	at, err := c.Create(0, "/w/noobs", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, err := c.Stat(at, "/w/noobs"); err != nil {
			t.Fatal(err)
		}
	}
	h := e.region.health(healthThresholds{skewMaxMeanPermille: 1, skewMinOps: 1, skewSustainNS: 1})
	if h.NodeOpsMaxMeanPermille != 0 || h.HotPath != "" || h.Status != HealthOK {
		t.Fatalf("obs-less region grew skew fields: %+v", h)
	}

	// Single node: every op lands on the only node; imbalance is
	// meaningless and the rule must not fire no matter the thresholds.
	o := obs.New()
	e1 := newEnvDeps(t, 1, nil, func(d *Deps) { d.Obs = o })
	c1 := e1.client(t, "node0")
	at, err = c1.Create(0, "/w/solo", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, _, err := c1.Stat(at, "/w/solo"); err != nil {
			t.Fatal(err)
		}
	}
	thr := healthThresholds{skewMaxMeanPermille: 1, skewMinOps: 1, skewSustainNS: 1}
	e1.region.health(thr)
	time.Sleep(2 * time.Millisecond)
	if h := e1.region.health(thr); h.Status != HealthOK || h.NodeOpsMaxMeanPermille != 0 {
		t.Fatalf("single-node region reported skew: %+v", h)
	}
	// The telemetry itself still records — only the health rule is out.
	if loads := o.HotNodeLoads(); len(loads) != 1 || loads[0].Ops != 33 {
		t.Fatalf("single-node loads = %+v, want node0 at 33 ops", loads)
	}
}
