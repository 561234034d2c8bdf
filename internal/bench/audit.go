package bench

import (
	"fmt"

	"pacon/internal/chaos"
)

// The audit experiment turns the divergence auditor into a standing
// verification gate: several chaos schedules (fault injection, stalls,
// rmdir races, cache pressure) run to quiescence and every one must end
// with a clean post-drain audit — zero divergent, zero stale-pending.
// The report is what CI's audit-check step archives.

// AuditSeed is one chaos schedule's audit outcome.
type AuditSeed struct {
	Seed         int64 `json:"seed"`
	ClientOps    int   `json:"client_ops"`
	Injected     int   `json:"injected_faults"`
	Stalls       int   `json:"injected_stalls"`
	Sampled      int   `json:"sampled"`
	Matched      int   `json:"matched"`
	StalePending int   `json:"stale_pending"`
	Divergent    int   `json:"divergent"`
}

// AuditReport is the machine-readable result (AUDIT_report.json).
type AuditReport struct {
	Experiment   string      `json:"experiment"`
	Seeds        []AuditSeed `json:"seeds"`
	TotalSampled int         `json:"total_sampled"`
	// AllClean is the gate: true iff every seed audited with zero
	// divergent and zero stale-pending keys.
	AllClean bool `json:"all_clean"`
}

// RunAudit drives the chaos harness across a spread of seeds and
// fault mixes, collecting each run's post-drain audit. Any divergence
// (or harness violation of any kind) is an error, not a data point.
func RunAudit(cfg Config) (*AuditReport, []*Figure, error) {
	ops := cfg.ItemsPerClient
	if ops < 20 {
		ops = 20
	}
	schedules := []chaos.Config{
		{Seed: 1, Nodes: 2, Clients: 4, Ops: ops, FaultRate: 0.05, MaxFaultsPerPath: 2},
		{Seed: 2, Nodes: 3, Clients: 6, Ops: ops, FaultRate: 0.1, MaxFaultsPerPath: 2, StallEveryN: 7},
		{Seed: 3, Nodes: 2, Clients: 4, Ops: ops, Rmdir: true, DoomedDirs: 2},
		{Seed: 4, Nodes: 2, Clients: 4, Ops: ops, CacheCapacityBytes: 16 << 10},
	}

	rep := &AuditReport{
		Experiment: "divergence audit over chaos schedules: committed cache entries vs DFS",
		AllClean:   true,
	}
	f := &Figure{
		ID: "audit", Title: "Post-drain divergence audit across chaos schedules",
		XLabel: "seed", YLabel: "keys",
		Series: []string{"sampled", "matched", "stale-pending", "divergent"},
	}
	for _, sc := range schedules {
		res, err := chaos.Run(sc)
		if err != nil {
			return nil, nil, fmt.Errorf("audit seed %d: %w", sc.Seed, err)
		}
		a := res.Audit
		rep.Seeds = append(rep.Seeds, AuditSeed{
			Seed:         sc.Seed,
			ClientOps:    res.ClientOps,
			Injected:     res.Injected,
			Stalls:       res.Stalls,
			Sampled:      a.Sampled,
			Matched:      a.Matched,
			StalePending: a.StalePending,
			Divergent:    a.Divergent,
		})
		rep.TotalSampled += a.Sampled
		if a.Divergent > 0 || a.StalePending > 0 {
			rep.AllClean = false
		}
		f.AddPoint(fmt.Sprintf("%d", sc.Seed), map[string]float64{
			"sampled":       float64(a.Sampled),
			"matched":       float64(a.Matched),
			"stale-pending": float64(a.StalePending),
			"divergent":     float64(a.Divergent),
		})
	}
	f.Note("%d keys audited across %d schedules; all clean: %v",
		rep.TotalSampled, len(rep.Seeds), rep.AllClean)
	if !rep.AllClean {
		return rep, []*Figure{f}, fmt.Errorf("audit gate failed: divergence or post-drain stale-pending detected")
	}
	return rep, []*Figure{f}, nil
}
