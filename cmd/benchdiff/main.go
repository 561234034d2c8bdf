// Command benchdiff compares two paconbench reports (BENCH.json, or any
// two JSON files of one shape) and flags regressions: a developer diffs
// the committed baseline against a fresh run of the same scale and sees
// which metrics moved more than the threshold in the adverse direction.
//
// Usage:
//
//	benchdiff OLD.json NEW.json              # report, exit 0
//	benchdiff -fail OLD.json NEW.json        # exit 1 on regressions
//	benchdiff -threshold 0.05 OLD NEW        # tighter gate (default 0.10)
//
// Both files are flattened to dotted numeric leaves
// ("points[2].virtual_ops_per_sec") and compared key-by-key; rows pair up
// by position, which holds for two runs of the same experiments. Direction is inferred from the metric name — throughput-
// like metrics (ops_per_sec, speedup, recall, hits...) regress when
// they fall, cost-like metrics (latency, _ns, wait, errors, misses...)
// when they rise; unrecognized metrics are reported as changed but
// never counted as regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 0.10, "relative change counted as a regression")
		failFlag  = flag.Bool("fail", false, "exit 1 when regressions are found")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.10] [-fail] OLD.json NEW.json")
		os.Exit(2)
	}
	oldLeaves, err := loadLeaves(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newLeaves, err := loadLeaves(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regressions, improvements, changed := diff(oldLeaves, newLeaves, *threshold)

	fmt.Printf("benchdiff: %s -> %s (threshold %.0f%%)\n", flag.Arg(0), flag.Arg(1), 100**threshold)
	if len(regressions) == 0 && len(improvements) == 0 && len(changed) == 0 {
		fmt.Println("  no metric moved past the threshold")
	}
	for _, d := range regressions {
		fmt.Printf("  REGRESSION %-60s %14.4g -> %-14.4g (%+.1f%%)\n", d.key, d.old, d.new, 100*d.rel)
	}
	for _, d := range improvements {
		fmt.Printf("  improved   %-60s %14.4g -> %-14.4g (%+.1f%%)\n", d.key, d.old, d.new, 100*d.rel)
	}
	for _, d := range changed {
		fmt.Printf("  changed    %-60s %14.4g -> %-14.4g (%+.1f%%)\n", d.key, d.old, d.new, 100*d.rel)
	}
	fmt.Printf("  %d regression(s), %d improvement(s), %d neutral change(s)\n",
		len(regressions), len(improvements), len(changed))
	if *failFlag && len(regressions) > 0 {
		os.Exit(1)
	}
}

type delta struct {
	key      string
	old, new float64
	rel      float64
}

// diff buckets every shared numeric leaf whose relative change exceeds
// the threshold: adverse moves on direction-known metrics are
// regressions, favorable ones improvements, direction-unknown ones
// neutral. Keys present in only one file are ignored — shape growth
// (new metrics) is not a regression.
func diff(oldLeaves, newLeaves map[string]float64, threshold float64) (regressions, improvements, changed []delta) {
	keys := make([]string, 0, len(oldLeaves))
	for k := range oldLeaves {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ov := oldLeaves[k]
		nv, ok := newLeaves[k]
		if !ok || ov == nv {
			continue
		}
		if ov == 0 {
			// No baseline to take a ratio against; report as neutral.
			changed = append(changed, delta{k, ov, nv, 0})
			continue
		}
		rel := (nv - ov) / ov
		if abs(rel) < threshold {
			continue
		}
		d := delta{k, ov, nv, rel}
		switch direction(k) {
		case +1: // higher is better
			if rel < 0 {
				regressions = append(regressions, d)
			} else {
				improvements = append(improvements, d)
			}
		case -1: // lower is better
			if rel > 0 {
				regressions = append(regressions, d)
			} else {
				improvements = append(improvements, d)
			}
		default:
			changed = append(changed, d)
		}
	}
	return regressions, improvements, changed
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// direction classifies a metric key: +1 higher-is-better, -1
// lower-is-better, 0 unknown. Cost-like markers are checked first so
// "queue_wait_..._per_op" is not misread via some other substring.
func direction(key string) int {
	k := strings.ToLower(key)
	lower := []string{
		"_ns", "latency", "wait", "lag", "stale", "wall_seconds",
		"errors", "dropped", "misses", "evictions", "fallbacks",
		"p50", "p95", "p99", "divergent", "retries", "discarded",
		"maxmean", "cv_permille",
	}
	for _, m := range lower {
		if strings.Contains(k, m) {
			return -1
		}
	}
	higher := []string{
		"ops_per_sec", "speedup", "recall", "throughput", "hits",
		"coalesced", "share",
	}
	for _, m := range higher {
		if strings.Contains(k, m) {
			return +1
		}
	}
	return 0
}

// loadLeaves flattens a JSON document to its numeric leaves, keyed by
// dotted path ("points[2].virtual_ops_per_sec"). Booleans and strings
// are skipped — this tool compares measurements, not labels.
func loadLeaves(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	flatten("", doc, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flatten(key, child, out)
		}
	case []any:
		for i, child := range t {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	case float64:
		out[prefix] = t
	}
}
