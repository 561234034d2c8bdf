package chaos

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pacon/internal/obs"
)

// configFor derives a varied deployment from a schedule index: region
// size, client count, fault intensity, eviction pressure and the rmdir
// zone all cycle so the seed sweep covers their combinations.
func configFor(seed int) Config {
	cfg := Config{
		Seed:             int64(seed),
		Nodes:            1 + seed%3,
		Clients:          2 + seed%3,
		Ops:              90,
		FaultRate:        0.10 + 0.05*float64(seed%4),
		MaxFaultsPerPath: 1 + seed%3,
		StallEveryN:      7 + seed%11,
		Rmdir:            seed%2 == 1,
	}
	if seed%4 == 3 {
		// Low watermark: a few KB per node forces round-robin eviction
		// to run continuously against the workload.
		cfg.CacheCapacityBytes = 4096
	}
	// Most seeds run the default batch width; one in seven dequeues
	// op-at-a-time, so the sweep also covers a commit loop in which
	// nothing coalesces or batches.
	if seed%7 == 2 {
		cfg.CommitBatchSize = 1
	}
	// One seed in four acks through a bound: blocks of four consecutive
	// seeds, so each meets every residue of the dimensions above, at bound 1
	// (every ack waits for its own commit) and 3 in turn.
	if (seed/4)%4 == 1 {
		cfg.AtRiskBound = 1 + 2*(seed/16%2)
	}
	return cfg
}

// auditSchedules add shapes configFor never produces — six clients on
// three nodes, a 16 KiB cache — beside a light-fault and an rmdir
// schedule. Every schedule ends in the post-drain audit; on these the
// audit must also have sampled something.
var auditSchedules = []Config{
	{Seed: 1, Nodes: 2, Clients: 4, Ops: 30, FaultRate: 0.05, MaxFaultsPerPath: 2},
	{Seed: 2, Nodes: 3, Clients: 6, Ops: 30, FaultRate: 0.1, MaxFaultsPerPath: 2, StallEveryN: 7},
	{Seed: 3, Nodes: 2, Clients: 4, Ops: 30, Rmdir: true, DoomedDirs: 2},
	{Seed: 4, Nodes: 2, Clients: 4, Ops: 30, CacheCapacityBytes: 16 << 10},
}

// TestChaosConvergence runs randomized schedules (100+ in full mode) and
// requires every one to converge with zero violations: cache, DFS and
// the in-memory oracle agree after the drain, the divergence audit finds
// nothing divergent or stale-pending, and the chunk audit no orphan
// chunk.
func TestChaosConvergence(t *testing.T) {
	schedules := 104
	if testing.Short() {
		schedules = 12
	}
	run := func(name string, cfg Config, audited bool) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(cfg)
			if err != nil {
				if res.StageSummary != "" {
					t.Logf("%s stage latencies:\n%s", name, res.StageSummary)
				}
				t.Fatalf("schedule diverged: %v\nresult: %+v", err, res)
			}
			if res.Audit.OrphanChunks != 0 {
				t.Fatalf("%d inodes' chunks outlived their files: %s", res.Audit.OrphanChunks, res.Audit)
			}
			if audited && res.Audit.Sampled == 0 {
				t.Fatalf("the audit sampled no entry: %s", res.Audit)
			}
			if res.Injected == 0 && cfg.FaultRate > 0 {
				t.Logf("note: no faults injected (%s)", name)
			}
		})
	}
	for seed := 0; seed < schedules; seed++ {
		run(fmt.Sprintf("seed%03d", seed), configFor(seed), false)
	}
	for i, cfg := range auditSchedules {
		run(fmt.Sprintf("audit%d", i+1), cfg, true)
	}
}

// TestChaosFaultFree pins the harness itself: with injection disabled
// and no pressure, a schedule must also converge — a violation here is a
// harness/oracle bug, not a fault-handling bug.
func TestChaosFaultFree(t *testing.T) {
	res, err := Run(Config{Seed: 42, FaultRate: -1, StallEveryN: 1 << 30})
	if err != nil {
		t.Fatalf("fault-free schedule diverged: %v\nresult: %+v", err, res)
	}
	if res.Stats.Committed == 0 {
		t.Fatal("no ops committed — the workload did nothing")
	}
	if res.Renames == 0 {
		t.Fatal("no rename ran — the exclusive zone's rename step is unreached")
	}
}

// TestChaosReportsInjection sanity-checks the injector wiring: with a
// high rate the schedule must both inject faults and still converge via
// resubmission.
func TestChaosReportsInjection(t *testing.T) {
	res, err := Run(Config{Seed: 7, FaultRate: 0.5, MaxFaultsPerPath: 3})
	if err != nil {
		t.Fatalf("high-fault schedule diverged: %v\nresult: %+v", err, res)
	}
	if res.Injected == 0 {
		t.Fatal("injector never fired at rate 0.5")
	}
	if res.Stats.Retries == 0 {
		t.Fatal("injected failures produced no resubmissions")
	}
}

// TestChaosSharded runs schedules against the subtree-partitioned MDS
// pool: every existing zone (exclusive, hot, hub, doomed-rmdir) must
// converge and pass the audit gate exactly as on the single MDS.
func TestChaosSharded(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			t.Parallel()
			cfg := configFor(shards)
			cfg.Shards = shards
			cfg.Rmdir = true
			res, err := Run(cfg)
			if err != nil {
				if res.StageSummary != "" {
					t.Logf("stage latencies:\n%s", res.StageSummary)
				}
				t.Fatalf("sharded schedule diverged: %v\nresult: %+v", err, res)
			}
			if res.Audit.Divergent > 0 || res.Audit.StalePending > 0 {
				t.Fatalf("audit gate not clean: %+v", res.Audit)
			}
		})
	}
}

// TestChaosShardKillRecover downs the shard owning the busiest zone
// mid-schedule and recovers it: the commit side must ride out the
// outage (the dead shard's ops park on ErrClosed and are resubmitted,
// the rest of each wave commits) and the run must still converge with
// a clean audit.
func TestChaosShardKillRecover(t *testing.T) {
	res, err := Run(Config{Seed: 11, Shards: 4, KillShard: true, Clients: 4, Ops: 150})
	if err != nil {
		if res.StageSummary != "" {
			t.Logf("stage latencies:\n%s", res.StageSummary)
		}
		t.Fatalf("kill/recover schedule diverged: %v\nresult: %+v", err, res)
	}
	if res.Audit.Divergent > 0 || res.Audit.StalePending > 0 {
		t.Fatalf("audit gate not clean after shard outage: %+v", res.Audit)
	}
	if res.Stats.Retries == 0 {
		t.Error("shard outage produced no resubmissions")
	}
}

// TestChaosLostCommitFlightRecorder runs the deliberately failing
// schedule: one commit is silently lost, so the run must end in
// violations AND carry a flight-recorder dump whose kept spans include a
// cross-node one (client-side stage events plus cache-server or MDS
// handler events — chaos samples every span).
func TestChaosLostCommitFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("CHAOS_FLIGHT_DIR", dir)
	res, err := Run(Config{Seed: 3, FaultRate: -1, StallEveryN: 1 << 30, LoseOneCommit: true})
	if err == nil {
		t.Fatal("LoseOneCommit schedule converged — the self-test fault was not injected")
	}
	if len(res.Flight) == 0 {
		t.Fatal("failing schedule produced no flight dump")
	}
	var dump obs.FlightDump
	if jerr := json.Unmarshal(res.Flight, &dump); jerr != nil {
		t.Fatalf("flight dump is not valid JSON: %v", jerr)
	}
	if dump.Reason == "" {
		t.Fatal("flight dump has no trigger reason")
	}

	// Cross-node span evidence: a kept span with events from both a
	// client node and a service address (cache server "<node>/pacon-*"
	// or the MDS). Chaos runs with SetSampleN(1), so every op's RPCs
	// were tagged.
	crossNode := false
	for _, cp := range append(dump.RecentSpans, dump.SlowSpans...) {
		var client, server bool
		for _, ev := range cp.Events {
			if strings.Contains(ev.Node, "/") {
				server = true
			} else {
				client = true
			}
		}
		if client && server {
			crossNode = true
			break
		}
	}
	if !crossNode {
		t.Fatalf("no kept span in the dump has cross-node events (%d recent, %d slow)",
			len(dump.RecentSpans), len(dump.SlowSpans))
	}

	// The dump was also written as a file for CI artifact upload.
	matches, _ := filepath.Glob(filepath.Join(dir, "pacon-flight-*.json"))
	if len(matches) == 0 {
		t.Fatal("CHAOS_FLIGHT_DIR set but no dump file written")
	}
}
