package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pacon"
	"pacon/internal/audit"
	"pacon/internal/namespace"
	"pacon/internal/vclock"
)

// shell interprets file-system commands against one consistent region.
// Paths may be absolute or relative to the workspace.
type shell struct {
	sim    *pacon.Simulation
	region *pacon.Region
	client *pacon.Client
	obs    *pacon.Obs
	ws     string
	now    pacon.Time
	ckpts  []uint64
}

func newShell(nodes, shards int, ws string) (*shell, error) {
	o := pacon.NewObs()
	sim := pacon.NewSimulation(pacon.SimulationConfig{
		ClientNodes: nodes,
		Obs:         o,
		ShardCount:  shards,
		SpreadRoots: []string{ws},
	})
	sim.MustMkdirAll(ws, 0o777)
	region, err := sim.NewRegion(pacon.RegionConfig{
		Name:      "shell",
		Workspace: ws,
		Nodes:     sim.Nodes(),
		Cred:      pacon.Cred{UID: 1000, GID: 1000},
	})
	if err != nil {
		return nil, err
	}
	client, err := region.NewClient(sim.Nodes()[0])
	if err != nil {
		region.Close()
		return nil, err
	}
	return &shell{sim: sim, region: region, client: client, obs: o, ws: namespace.Clean(ws)}, nil
}

func (s *shell) close() {
	s.region.Close()
	s.sim.Close()
}

// abs resolves a command argument to a full path.
func (s *shell) abs(p string) string {
	if strings.HasPrefix(p, "/") {
		return namespace.Clean(p)
	}
	return namespace.Join(s.ws, p)
}

const helpText = `commands:
  mkdir PATH            create a directory (async commit)
  create PATH           create an empty file (async commit)
  write PATH TEXT...    write text at offset 0 (inline if small)
  read PATH             read and print file content
  stat PATH             show metadata
  ls [PATH]             list a directory (barrier: exact listing)
  rm PATH               remove a file (async commit)
  mv SRC DST            rename a file or directory (sync + barrier)
  rmdir PATH            remove a directory recursively (sync + barrier)
  drain                 force all queued commits to the DFS
  stats                 region + cache + queue + latency statistics
  shards                per-MDS-shard op counts and utilization
  hot [K]               top-K hot paths, hot subtrees and load skew
  health                region health: status, staleness, queue state
  audit [N]             compare committed cache entries against the DFS
                        (sample at most N keys; default: every key)
  slow [MS] [N]         N slowest traced ops over MS milliseconds
                        (default threshold 20ms; 'slow 0' shows all)
  trace [SPAN]          recently kept spans, or one span's cross-node
                        critical path (segments + ordered timeline)
  time                  current virtual time
  checkpoint            snapshot the workspace on the DFS
  restore N             roll back to checkpoint N
  fail NODE             simulate a client-node failure (lose queued ops)
  help                  this text
  quit                  leave`

// exec runs one command line, returning its output and whether to quit.
func (s *shell) exec(line string) (out string, quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", false, nil
	}
	cmd, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s: need %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "help":
		return helpText, false, nil
	case "quit", "exit":
		return "bye", true, nil
	case "time":
		return fmt.Sprintf("virtual time %v", s.now), false, nil

	case "mkdir":
		if err := need(1); err != nil {
			return "", false, err
		}
		s.now, err = s.client.Mkdir(s.now, s.abs(args[0]), 0o755)
		return "", false, err
	case "create":
		if err := need(1); err != nil {
			return "", false, err
		}
		s.now, err = s.client.Create(s.now, s.abs(args[0]), 0o644)
		return "", false, err
	case "write":
		if err := need(2); err != nil {
			return "", false, err
		}
		data := []byte(strings.Join(args[1:], " "))
		s.now, err = s.client.WriteAt(s.now, s.abs(args[0]), 0, data)
		if err != nil {
			return "", false, err
		}
		return fmt.Sprintf("%d bytes", len(data)), false, nil
	case "read":
		if err := need(1); err != nil {
			return "", false, err
		}
		var data []byte
		data, s.now, err = s.client.ReadAt(s.now, s.abs(args[0]), 0, 1<<20)
		if err != nil {
			return "", false, err
		}
		return string(data), false, nil
	case "stat":
		if err := need(1); err != nil {
			return "", false, err
		}
		var st pacon.Stat
		st, s.now, err = s.client.Stat(s.now, s.abs(args[0]))
		if err != nil {
			return "", false, err
		}
		return fmt.Sprintf("%s mode=%v uid=%d gid=%d size=%d inline=%dB",
			st.Type, st.Mode, st.UID, st.GID, st.Size, len(st.Inline)), false, nil
	case "ls":
		p := s.ws
		if len(args) > 0 {
			p = s.abs(args[0])
		}
		var ents []pacon.DirEntry
		ents, s.now, err = s.client.Readdir(s.now, p)
		if err != nil {
			return "", false, err
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			suffix := ""
			if e.Type == pacon.TypeDir {
				suffix = "/"
			}
			names = append(names, e.Name+suffix)
		}
		sort.Strings(names)
		return strings.Join(names, "  "), false, nil
	case "rm":
		if err := need(1); err != nil {
			return "", false, err
		}
		s.now, err = s.client.Remove(s.now, s.abs(args[0]))
		return "", false, err
	case "mv":
		if err := need(2); err != nil {
			return "", false, err
		}
		s.now, err = s.client.Rename(s.now, s.abs(args[0]), s.abs(args[1]))
		return "", false, err
	case "rmdir":
		if err := need(1); err != nil {
			return "", false, err
		}
		s.now, err = s.client.Rmdir(s.now, s.abs(args[0]))
		return "", false, err

	case "drain":
		s.now, err = s.region.Drain(s.now)
		return "queues drained — backup copies on the DFS", false, err
	case "stats":
		rs := s.region.Stats()
		cs := s.region.CacheStats()
		out := fmt.Sprintf(
			"commit: %d committed, %d retries, %d discarded, %d dropped\nqueue:  %d pending ops\ncache:  %d items, %d bytes, %d hits, %d misses\nevict:  %d rounds",
			rs.Committed, rs.Retries, rs.Discarded, rs.Dropped,
			s.region.QueueDepth(),
			cs.Items, cs.UsedBytes, cs.Hits, cs.Misses,
			rs.Evictions)
		if sum := s.obs.Summary(); sum != "" {
			out += "\n" + sum
		}
		return out, false, nil
	case "shards":
		cluster := s.sim.DFS()
		var sb strings.Builder
		if cluster.Shards.N() > 1 {
			fmt.Fprintf(&sb, "%d metadata shard(s), subtree-partitioned (spread root %s)",
				len(cluster.MDSes), s.ws)
		} else {
			fmt.Fprintf(&sb, "%d metadata server(s), shared namespace", len(cluster.MDSes))
		}
		for i, m := range cluster.MDSes {
			st := m.Stats()
			res := m.Resource()
			util := 0.0
			if s.now > 0 {
				util = res.Utilization(vclock.Duration(s.now))
			}
			fmt.Fprintf(&sb, "\n  %-16s lookups=%-8d reads=%-8d writes=%-8d busy=%-14v util=%.0f%%",
				cluster.MDSAddrs[i], st.Lookups, st.Reads, st.Writes, res.BusyTime(), 100*util)
		}
		return sb.String(), false, nil
	case "hot":
		// hot [K]: the merged hotspot snapshot — top-K heavy-hitter
		// paths, subtrees with ≥5% of the load (the split candidates),
		// and per-node op skew. Counts are space-saving upper bounds.
		k := 10
		if len(args) > 0 {
			n, perr := strconv.Atoi(args[0])
			if perr != nil || n < 1 {
				return "", false, fmt.Errorf("hot: bad count %q", args[0])
			}
			k = n
		}
		rep := s.obs.HotReport(k, 0.05)
		if rep == nil {
			return "no ops recorded yet", false, nil
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "hot paths (top %d of %d recorded op(s)):", k, rep.TotalOps)
		for _, hk := range rep.TopPaths {
			fmt.Fprintf(&sb, "\n  %5.1f%% n≤%-8d %s", 100*hk.Share, hk.Count, hk.Path)
		}
		sb.WriteString("\nhot subtrees (≥5% of load):")
		for _, hk := range rep.HotSubtrees {
			fmt.Fprintf(&sb, "\n  %5.1f%% n≤%-8d %s", 100*hk.Share, hk.Count, hk.Path)
		}
		fmt.Fprintf(&sb, "\nnode load: max/mean=%.2fx cv=%.2f over %d node(s)",
			float64(rep.NodeSkew.MaxMeanPermille)/1000, float64(rep.NodeSkew.CVPermille)/1000, rep.NodeSkew.N)
		for _, l := range rep.NodeOps {
			fmt.Fprintf(&sb, "\n  %-16s %d op(s)", l.Node, l.Ops)
		}
		return sb.String(), false, nil
	case "health":
		h := s.region.Health()
		var sb strings.Builder
		fmt.Fprintf(&sb, "status: %s", h.Status)
		for _, r := range h.Reasons {
			fmt.Fprintf(&sb, "\n  %s", r)
		}
		fmt.Fprintf(&sb, "\nstaleness: max=%v peak-commit-lag=%v queue-head-age=%v",
			time.Duration(h.MaxStalenessNS), time.Duration(h.MaxCommitLagNS),
			time.Duration(h.QueueHeadAgeNS))
		fmt.Fprintf(&sb, "\nqueues: %d pending op(s), %d parked", h.QueueDepth, h.ParkedOps)
		fmt.Fprintf(&sb, "\nat risk: %d acked op(s) the DFS does not have yet", h.AtRiskOps)
		fmt.Fprintf(&sb, "\ncache: %d dirty key(s), %d removed", h.DirtyKeys, h.RemovedKeys)
		if h.NodeOpsMaxMeanPermille > 0 {
			fmt.Fprintf(&sb, "\nskew: node max/mean=%.2fx cv=%.2f",
				float64(h.NodeOpsMaxMeanPermille)/1000, float64(h.NodeOpsCVPermille)/1000)
			if h.HotPath != "" {
				fmt.Fprintf(&sb, " (hottest: %s at %.0f%%)", h.HotPath, 100*h.HotPathShare)
			}
		}
		fmt.Fprintf(&sb, "\ndropped: %d", h.DroppedOps)
		for _, reason := range sortedKeys(h.DroppedByReason) {
			fmt.Fprintf(&sb, "\n  %s: %d", reason, h.DroppedByReason[reason])
		}
		if h.LastAudit != nil {
			fmt.Fprintf(&sb, "\nlast audit: %d sampled — %d match, %d stale-pending, %d divergent",
				h.LastAudit.Sampled, h.LastAudit.Matched,
				h.LastAudit.StalePending, h.LastAudit.Divergent)
		} else {
			sb.WriteString("\nlast audit: never ran (try 'audit')")
		}
		return sb.String(), false, nil
	case "audit":
		cfg := audit.Config{}
		if len(args) > 0 {
			n, perr := strconv.Atoi(args[0])
			if perr != nil || n < 1 {
				return "", false, fmt.Errorf("audit: bad sample limit %q", args[0])
			}
			cfg.SampleLimit = n
		}
		var rep audit.Report
		rep, s.now, err = audit.Run(s.client, s.now, cfg)
		if err != nil {
			return "", false, err
		}
		return rep.String(), false, nil

	case "slow":
		// slow [THRESHOLD_MS] [N]: the N slowest kept spans whose total
		// wall latency reached the threshold, one line each: a sampled
		// span with its critical-path segments, a tail-kept one with its
		// header only.
		max := 10
		if len(args) > 0 {
			ms, perr := strconv.Atoi(args[0])
			if perr != nil || ms < 0 {
				return "", false, fmt.Errorf("slow: bad threshold %q (milliseconds)", args[0])
			}
			d := time.Duration(ms) * time.Millisecond
			if ms == 0 {
				d = time.Nanosecond // 0 means "show every traced op"
			}
			s.obs.SetSlowThreshold(d)
		}
		if len(args) > 1 {
			n, perr := strconv.Atoi(args[1])
			if perr != nil || n < 1 {
				return "", false, fmt.Errorf("slow: bad count %q", args[1])
			}
			max = n
		}
		spans := s.obs.SlowSpans(max)
		if len(spans) == 0 {
			return fmt.Sprintf("no kept spans over %v (head sampling 1-in-%d)", s.obs.SlowThreshold(), s.obs.SampleN()), false, nil
		}
		lines := make([]string, 0, len(spans))
		for _, sp := range spans {
			lines = append(lines, sp.Line())
		}
		return strings.Join(lines, "\n"), false, nil

	case "trace":
		// trace [SPAN]: without arguments, the recently kept spans
		// (head-sampled plus tail-kept anomalies), newest first, one
		// line each; with a span ID, that span's full cross-node
		// critical path — per-segment wall attribution and the ordered
		// event timeline across client, cache and DFS nodes.
		if len(args) > 0 {
			id, perr := strconv.ParseUint(args[0], 10, 64)
			if perr != nil || id == 0 {
				return "", false, fmt.Errorf("trace: bad span id %q", args[0])
			}
			cp, ok := s.obs.SpanTrace(id)
			if !ok {
				return fmt.Sprintf("span %d: not retained (rotated out of the kept ring, or never kept)", id), false, nil
			}
			return cp.String(), false, nil
		}
		kept := s.obs.RecentSpans(10)
		if len(kept) == 0 {
			ts := s.obs.TraceStats()
			return fmt.Sprintf("no spans kept yet (head sampling 1-in-%d; anomalies are always kept)", ts.SampleN), false, nil
		}
		lines := make([]string, 0, len(kept))
		for _, cp := range kept {
			lines = append(lines, fmt.Sprintf("span=%d %-8s %-24s total=%v kept=%s",
				cp.Span, cp.Op, cp.Path, cp.Total, cp.Kept))
		}
		lines = append(lines, "('trace SPAN' for the full cross-node timeline)")
		return strings.Join(lines, "\n"), false, nil

	case "checkpoint":
		var seq uint64
		seq, s.now, err = s.region.Checkpoint(s.client, s.now)
		if err != nil {
			return "", false, err
		}
		s.ckpts = append(s.ckpts, seq)
		return fmt.Sprintf("checkpoint %d", seq), false, nil
	case "restore":
		if err := need(1); err != nil {
			return "", false, err
		}
		seq, perr := strconv.ParseUint(args[0], 10, 64)
		if perr != nil {
			return "", false, fmt.Errorf("restore: bad checkpoint id %q", args[0])
		}
		s.now, err = s.region.Restore(s.client, s.now, seq)
		if err != nil {
			return "", false, err
		}
		return fmt.Sprintf("workspace rolled back to checkpoint %d", seq), false, nil
	case "fail":
		if err := need(1); err != nil {
			return "", false, err
		}
		// An unknown node is NewClient's error; SimulateNodeFailure has none.
		if _, err := s.region.NewClient(args[0]); err != nil {
			return "", false, err
		}
		lost := s.region.SimulateNodeFailure(args[0])
		return fmt.Sprintf("node %s failed: %d uncommitted op(s) lost", args[0], lost), false, nil

	default:
		return "", false, fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

// sortedKeys orders a counter map's keys for stable shell output.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
