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

// The levels at which Health degrades and stalls a region: wall-clock
// staleness, and sustained per-node load imbalance (hotspot skew).
const (
	healthDegradedNS = int64(5 * time.Second)
	healthStalledNS  = int64(60 * time.Second)
	// The hottest node carrying ≥3× its fair share (max over mean of
	// recorded ops per node, ×1000) counts as imbalanced. Only meaningful
	// with observability enabled and >1 node.
	healthSkewMaxMeanPermille = 3000
	// How long the imbalance must persist across Health polls before it
	// degrades the region: a burst is not a hotspot.
	healthSkewSustainNS = int64(10 * time.Second)
	// Skew over fewer recorded ops than this is noise.
	healthSkewMinOps = 1024
)

// healthThresholds lets tests tighten the levels above; a zero field
// selects its constant.
type healthThresholds struct {
	degradedNS, stalledNS                          int64
	skewMaxMeanPermille, skewSustainNS, skewMinOps int64
}

func (t healthThresholds) withDefaults() healthThresholds {
	if t.degradedNS <= 0 {
		t.degradedNS = healthDegradedNS
	}
	if t.stalledNS <= 0 {
		t.stalledNS = healthStalledNS
	}
	if t.skewMaxMeanPermille <= 0 {
		t.skewMaxMeanPermille = healthSkewMaxMeanPermille
	}
	if t.skewSustainNS <= 0 {
		t.skewSustainNS = healthSkewSustainNS
	}
	if t.skewMinOps <= 0 {
		t.skewMinOps = healthSkewMinOps
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

// Health evaluates the region.
//
// Status rules, current conditions only (cumulative counters like
// dropped ops are reported as data, not status — a drop a week ago is
// not a present emergency):
//   - divergent keys in the last audit        → stalled
//   - max staleness ≥ stalled threshold       → stalled
//   - max staleness ≥ degraded threshold      → degraded
//   - parked (failed, retrying) ops           → degraded
//   - node load imbalance sustained past
//     healthSkewSustainNS (hotspot telemetry) → degraded
//
// With observability disabled the staleness watermark reads 0 and only
// the audit/parked rules can fire.
func (r *Region) Health() Health { return r.health(healthThresholds{}) }

func (r *Region) health(thr healthThresholds) Health {
	thr = thr.withDefaults()
	dirty, removed := r.headerCounts()
	h := Health{
		MaxStalenessNS: r.MaxStaleness(),
		MaxCommitLagNS: r.MaxCommitLag(),
		QueueHeadAgeNS: r.QueueHeadAge(),
		QueueDepth:     r.QueueDepth(),
		ParkedOps:      int64(r.parkedOps()),
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
	case h.MaxStalenessNS >= thr.stalledNS:
		worsen(HealthStalled, fmt.Sprintf("oldest unacked op is %s old (stalled ≥ %s)",
			time.Duration(h.MaxStalenessNS), time.Duration(thr.stalledNS)))
	case h.MaxStalenessNS >= thr.degradedNS:
		worsen(HealthDegraded, fmt.Sprintf("oldest unacked op is %s old (degraded ≥ %s)",
			time.Duration(h.MaxStalenessNS), time.Duration(thr.degradedNS)))
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
// thr.skewSustainNS across polls — r.skewSince carries the onset time
// between calls, and any balanced poll resets it.
func (r *Region) healthSkew(h *Health, thr healthThresholds, worsen func(HealthStatus, string)) {
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
	if sk.Total < thr.skewMinOps || sk.MaxMeanPermille < thr.skewMaxMeanPermille {
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
	if now-since >= thr.skewSustainNS {
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
