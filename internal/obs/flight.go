package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Flight recorder: an anomaly-triggered black-box snapshot. When Health
// worsens to degraded/stalled, an audit reports divergence, or a chaos
// seed fails, TriggerFlight captures — in one pass — the counter/gauge
// registry, per-stage latency quantiles, the recent kept + slow spans,
// and the events of the sampled spans still in flight, as a JSON dump
// for post-mortem. The point is timing: by the time a human looks, the
// 256-span kept ring has rotated; the dump is cut at the moment the
// anomaly was detected.

// flightMinInterval rate-limits dumps: an anomaly that keeps firing
// (e.g. a health probe polling a stalled region) produces one snapshot
// per interval, not one per probe.
const flightMinInterval = time.Second

// FlightDump is the serialized snapshot.
type FlightDump struct {
	Reason      string               `json:"reason"`
	WallNS      int64                `json:"wall_ns"`
	Counters    map[string]int64     `json:"counters,omitempty"`
	Gauges      map[string]int64     `json:"gauges,omitempty"`
	Latency     map[string]Quantiles `json:"latency_ns,omitempty"`
	RecentSpans []CritPath           `json:"recent_spans,omitempty"`
	SlowSpans   []CritPath           `json:"slow_spans,omitempty"`
	// Hotspots is the merged heavy-hitter snapshot (top paths, hot
	// subtrees, per-node load) at dump time, so a skew-triggered dump
	// names the paths responsible alongside the spans.
	Hotspots *HotReport `json:"hotspots,omitempty"`
	// Events is the events of the sampled spans still being assembled at
	// dump time, wall-ordered — what RecentSpans cannot show yet.
	Events []Event `json:"events,omitempty"`
}

// SetFlightDir makes TriggerFlight additionally write each dump to a
// file ("pacon-flight-<seq>-<reason>.json") under dir. Empty disables
// file output; the last dump stays readable via LastFlight either way.
func (o *Obs) SetFlightDir(dir string) {
	if o == nil {
		return
	}
	o.flightMu.Lock()
	o.flightDir = dir
	o.flightMu.Unlock()
}

// LastFlight returns the most recent dump's JSON (nil if none fired).
func (o *Obs) LastFlight() []byte {
	if o == nil {
		return nil
	}
	o.flightMu.Lock()
	defer o.flightMu.Unlock()
	return o.lastFlight
}

// TriggerFlight cuts a flight-recorder snapshot and returns its JSON.
// Rate-limited: triggers within flightMinInterval of the previous dump
// return nil. Nil-safe.
func (o *Obs) TriggerFlight(reason string) []byte {
	if o == nil {
		return nil
	}
	now := time.Now().UnixNano()
	last := o.flightLast.Load()
	if now-last < int64(flightMinInterval) || !o.flightLast.CompareAndSwap(last, now) {
		return nil
	}
	seq := o.flightSeq.Add(1)
	dump := FlightDump{
		Reason:      reason,
		WallNS:      now,
		Counters:    o.counterValues(),
		Gauges:      o.gaugeValues(),
		Latency:     o.HistQuantiles(),
		RecentSpans: o.RecentSpans(64),
		SlowSpans:   o.SlowSpans(32),
		Hotspots:    o.HotReport(16, 0.05),
		Events:      o.activeEvents(),
	}
	b, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return nil
	}
	o.flightMu.Lock()
	o.lastFlight = b
	dir := o.flightDir
	o.flightMu.Unlock()
	if dir != "" {
		name := fmt.Sprintf("pacon-flight-%d-%s.json", seq, sanitizeReason(reason))
		// Best-effort: a failed write must not take down the pipeline
		// the recorder exists to explain.
		_ = os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
	return b
}

// sanitizeReason keeps dump file names portable.
func sanitizeReason(reason string) string {
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "anomaly"
	}
	return string(out)
}
