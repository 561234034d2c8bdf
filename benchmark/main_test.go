package main

import (
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload at smoke scale (1 warm-up + 1 timed
// epoch of ~1k ops) in both modes and checks that exactly the metrics
// BENCHMARK.json names come out, finite, with the oracle passing, and
// that a seed fixes the op count and stat_hot's cache hit count.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w := findWorkload(sw.Name)
		if w == nil || w != &workloads[i] {
			t.Fatalf("workload %q of BENCHMARK.json is not workload %d of the harness", sw.Name, i)
		}
		t.Run(w.name, func(t *testing.T) {
			const seed = 7
			a, err := runEndToEnd(w, smokeSizing, seed, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runEndToEnd(w, smokeSizing, seed, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !a.correct || a.failed != 0 {
				t.Errorf("oracle failed: %d of %d ops", a.failed, a.attempted)
			}
			if a.attempted != b.attempted || a.attempted < 500 {
				t.Errorf("attempted ops %d and %d: want equal and ≥500", a.attempted, b.attempted)
			}
			if len(a.metrics) != len(spec.EndToEnd) {
				t.Errorf("%d end-to-end metrics, BENCHMARK.json names %d", len(a.metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				if v, ok := a.metrics[m.Name]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v): want finite and positive", m.Name, v.Value, ok)
				}
			}

			dir := t.TempDir()
			la, err := runTraced(w, smokeSizing, seed, 1, 64, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !la.correct {
				t.Errorf("traced run: oracle failed: %d of %d ops", la.failed, la.attempted)
			}
			if len(la.metrics) != len(spec.PerLayer) {
				t.Errorf("%d per-layer metrics, BENCHMARK.json names %d", len(la.metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if v, ok := la.metrics[m.Name]; !ok || v.Value < 0 || math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
					t.Errorf("per-layer metric %s = %v (present %v): want finite and non-negative", m.Name, v.Value, ok)
				}
			}
			for _, name := range []string{"core.commit.dropped", "core.commit.batch_fallbacks"} {
				if v := la.metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
			if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
				t.Error(err)
			}
			if w.name == "stat_hot" {
				lb, err := runTraced(w, smokeSizing, seed, 1, 64, dir)
				if err != nil {
					t.Fatal(err)
				}
				ha, hb := la.metrics["memcache.hits"].Value, lb.metrics["memcache.hits"].Value
				if ha != hb || ha == 0 {
					t.Errorf("stat_hot cache hits %v and %v on one seed: want equal and non-zero", ha, hb)
				}
				if r := la.metrics["memcache.hit_ratio"].Value; r != 1 {
					t.Errorf("stat_hot hit ratio %v, want 1", r)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
