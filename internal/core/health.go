package core

import (
	"fmt"
	"time"

	"pacon/internal/obs"
)

// HealthStatus is a region's typed health verdict.
type HealthStatus int

const (
	// HealthOK: commit pipeline current, no divergence on record.
	HealthOK HealthStatus = iota
	// HealthDegraded: the pipeline is falling behind (staleness past the
	// degraded threshold, or ops parked awaiting resubmission) but still
	// making progress.
	HealthDegraded
	// HealthStalled: the inconsistency window is no longer bounded in
	// practice — staleness past the stalled threshold — or the auditor
	// found cache↔DFS divergence, which asynchronous commit can never
	// repair on its own.
	HealthStalled
)

func (s HealthStatus) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthStalled:
		return "stalled"
	}
	return fmt.Sprintf("HealthStatus(%d)", int(s))
}

// MarshalText makes the status render as its name in JSON health
// documents (the /healthz endpoint).
func (s HealthStatus) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// HealthThresholds sets the wall-clock staleness levels (ns) at which a
// region degrades and stalls, and the sustained-imbalance level at
// which hotspot skew degrades it. The zero value selects the defaults.
type HealthThresholds struct {
	DegradedNS int64 // default 5s
	StalledNS  int64 // default 60s

	// SkewMaxMeanPermille is the per-node load imbalance — max over mean
	// of recorded ops per node, ×1000 — past which the region counts as
	// imbalanced. Default 3000: the hottest node carries ≥3× its fair
	// share. Only meaningful with observability enabled and >1 node.
	SkewMaxMeanPermille int64
	// SkewSustainNS is how long the imbalance must persist across Health
	// polls before it degrades the region (a burst is not a hotspot).
	// Default 10s.
	SkewSustainNS int64
	// SkewMinOps gates the imbalance rule until the region has recorded
	// at least this many ops — skew over a handful of ops is noise.
	// Default 1024.
	SkewMinOps int64
}

func (t HealthThresholds) withDefaults() HealthThresholds {
	if t.DegradedNS <= 0 {
		t.DegradedNS = int64(5 * time.Second)
	}
	if t.StalledNS <= 0 {
		t.StalledNS = int64(60 * time.Second)
	}
	if t.SkewMaxMeanPermille <= 0 {
		t.SkewMaxMeanPermille = 3000
	}
	if t.SkewSustainNS <= 0 {
		t.SkewSustainNS = int64(10 * time.Second)
	}
	if t.SkewMinOps <= 0 {
		t.SkewMinOps = 1024
	}
	return t
}

// AuditVerdict is the summary a divergence-audit run records with the
// region (the audit package computes it; core only stores the latest so
// Health can fold it in without an import cycle).
type AuditVerdict struct {
	Wall         int64 `json:"wall_ns"` // unix ns when the audit finished
	Sampled      int   `json:"sampled"`
	Matched      int   `json:"matched"`
	StalePending int   `json:"stale_pending"`
	Divergent    int   `json:"divergent"`
}

// RecordAudit stores the latest divergence-audit verdict. Divergence is
// the one condition asynchronous commit can never repair on its own, so
// it fires the flight recorder immediately — by the next poll the kept
// spans may already be overwritten.
func (r *Region) RecordAudit(v AuditVerdict) {
	r.auditMu.Lock()
	r.lastAudit = &v
	r.auditMu.Unlock()
	if v.Divergent > 0 && r.obs != nil {
		r.obs.TriggerFlight("audit_divergence")
	}
}

// LastAudit returns the most recent audit verdict, if any.
func (r *Region) LastAudit() (AuditVerdict, bool) {
	r.auditMu.Lock()
	defer r.auditMu.Unlock()
	if r.lastAudit == nil {
		return AuditVerdict{}, false
	}
	return *r.lastAudit, true
}

// Health is a region health snapshot: the consistency-lag watermarks,
// pipeline pressure, cache bookkeeping and the last audit verdict,
// folded into one typed status. All fields are JSON-stable — the
// /healthz endpoint serializes this struct as-is.
type Health struct {
	Status HealthStatus `json:"status"`
	// Reasons states, in plain words, every condition that pushed the
	// status past ok (empty when ok).
	Reasons []string `json:"reasons,omitempty"`

	MaxStalenessNS int64 `json:"max_staleness_ns"` // oldest unacked op age
	MaxCommitLagNS int64 `json:"max_commit_lag_ns"`
	QueueHeadAgeNS int64 `json:"queue_head_age_ns"`
	QueueDepth     int   `json:"queue_depth"`
	ParkedOps      int64 `json:"parked_ops"`
	AtRiskOps      int   `json:"at_risk_ops"` // acked, not yet terminal: what a crash of every node would lose
	DirtyKeys      int64 `json:"dirty_keys"`
	RemovedKeys    int64 `json:"removed_keys"`

	DroppedOps      int64            `json:"dropped_ops"`
	DroppedByReason map[string]int64 `json:"dropped_by_reason,omitempty"`

	// Per-node load-skew gauges from the hotspot telemetry (zero with
	// observability disabled): max/mean and coefficient of variation of
	// recorded ops per node, ×1000, plus the hottest path when skewed.
	NodeOpsMaxMeanPermille int64   `json:"node_ops_max_mean_permille,omitempty"`
	NodeOpsCVPermille      int64   `json:"node_ops_cv_permille,omitempty"`
	HotPath                string  `json:"hot_path,omitempty"`
	HotPathShare           float64 `json:"hot_path_share,omitempty"`

	LastAudit *AuditVerdict `json:"last_audit,omitempty"`
}

// Health evaluates the region against thr (zero value = defaults).
//
// Status rules, current conditions only (cumulative counters like
// dropped ops are reported as data, not status — a drop a week ago is
// not a present emergency):
//   - divergent keys in the last audit        → stalled
//   - max staleness ≥ stalled threshold       → stalled
//   - max staleness ≥ degraded threshold      → degraded
//   - parked (failed, retrying) ops           → degraded
//   - node load imbalance sustained past
//     SkewSustainNS (hotspot telemetry)       → degraded
//
// With observability disabled the staleness watermark reads 0 and only
// the audit/parked rules can fire.
func (r *Region) Health(thr HealthThresholds) Health {
	thr = thr.withDefaults()
	dirty, removed := r.headerCounts()
	h := Health{
		MaxStalenessNS: r.MaxStaleness(),
		MaxCommitLagNS: r.MaxCommitLag(),
		QueueHeadAgeNS: r.QueueHeadAge(),
		QueueDepth:     r.QueueDepth(),
		ParkedOps:      r.parked.Load(),
		AtRiskOps:      r.atRiskOps(),
		DirtyKeys:      dirty,
		RemovedKeys:    removed,
		DroppedOps:     r.dropped.Load(),
	}
	if d := r.DroppedByReason(); d[dropReasonRetryBudget]+d[dropReasonKindConflict]+d[dropReasonBackendError] > 0 {
		h.DroppedByReason = d
	}
	if v, ok := r.LastAudit(); ok {
		h.LastAudit = &v
	}

	worsen := func(to HealthStatus, why string) {
		if to > h.Status {
			h.Status = to
		}
		h.Reasons = append(h.Reasons, why)
	}
	if h.LastAudit != nil && h.LastAudit.Divergent > 0 {
		worsen(HealthStalled, fmt.Sprintf("last audit found %d divergent key(s)", h.LastAudit.Divergent))
	}
	switch {
	case h.MaxStalenessNS >= thr.StalledNS:
		worsen(HealthStalled, fmt.Sprintf("oldest unacked op is %s old (stalled ≥ %s)",
			time.Duration(h.MaxStalenessNS), time.Duration(thr.StalledNS)))
	case h.MaxStalenessNS >= thr.DegradedNS:
		worsen(HealthDegraded, fmt.Sprintf("oldest unacked op is %s old (degraded ≥ %s)",
			time.Duration(h.MaxStalenessNS), time.Duration(thr.DegradedNS)))
	}
	if h.ParkedOps > 0 {
		worsen(HealthDegraded, fmt.Sprintf("%d op(s) parked awaiting resubmission", h.ParkedOps))
	}
	r.healthSkew(&h, thr, worsen)

	// Flight-record worsening transitions: whoever polls Health (the
	// /healthz endpoint, the chaos harness, a test) gets the dump cut at
	// the moment the region first left its previous, better state.
	if prev := HealthStatus(r.healthPrev.Swap(int32(h.Status))); h.Status > prev && r.obs != nil {
		r.obs.TriggerFlight("health_" + h.Status.String())
	}
	return h
}

// healthSkew folds the hotspot telemetry's per-node load imbalance into
// a health snapshot: the gauges are always reported (when observability
// is on and the region has peers to be imbalanced against), but the
// status only degrades once the imbalance has persisted for
// SkewSustainNS across polls — r.skewSince carries the onset time
// between calls, and any balanced poll resets it.
func (r *Region) healthSkew(h *Health, thr HealthThresholds, worsen func(HealthStatus, string)) {
	if r.obs == nil || len(r.cfg.Nodes) < 2 {
		return
	}
	sk := obs.Skew(nodeOps(r.obs.HotNodeLoads()))
	h.NodeOpsMaxMeanPermille = sk.MaxMeanPermille
	h.NodeOpsCVPermille = sk.CVPermille
	if top := r.obs.TopPaths(1); len(top) > 0 {
		h.HotPath = top[0].Path
		h.HotPathShare = top[0].Share
	}
	if sk.Total < thr.SkewMinOps || sk.MaxMeanPermille < thr.SkewMaxMeanPermille {
		r.skewSince.Store(0)
		return
	}
	now := time.Now().UnixNano()
	since := r.skewSince.Load()
	if since == 0 {
		// Onset: CAS so concurrent pollers agree on one start time.
		r.skewSince.CompareAndSwap(0, now)
		return
	}
	if now-since >= thr.SkewSustainNS {
		worsen(HealthDegraded, fmt.Sprintf(
			"node load imbalance sustained %s: hottest node carries %.1fx the mean over %d node(s)",
			time.Duration(now-since), float64(sk.MaxMeanPermille)/1000, sk.N))
	}
}

// nodeOps projects per-node load records onto their op counts.
func nodeOps(loads []obs.NodeLoad) []int64 {
	ops := make([]int64, len(loads))
	for i, l := range loads {
		ops[i] = l.Ops
	}
	return ops
}
