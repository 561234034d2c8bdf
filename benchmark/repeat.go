package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness reads: the
// metric names of both blocks and the end-to-end bounds, the share of
// the median by which a metric may worsen and its quartiles may spread.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []boundedMetric         `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

type boundedMetric struct {
	Name  string
	Bound float64
}

// loadSpec reads BENCHMARK.json from the repository root, one level
// above this directory, which is where `go run -C benchmark .` and
// `go test` run.
func loadSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

// quartiles is Python's statistics.quantiles(v, n=4) (exclusive method),
// which is what the driver applies to its ten runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.50), at(0.75)
}

// repeatRuns reruns the end-to-end benchmark n times in fresh processes
// and prints per workload × metric the median, quartiles, interquartile
// spread and range as shares of the median: the bounded end-to-end
// metrics first, then the wall-clock and CPU numbers the run prints
// without a bound. Each run gets a seed of its own, as in the acceptance
// runs of the benchmark contract: the seed changes which inputs a
// workload gets, never how many. It returns the process exit code: 1 if
// any spread exceeds its bound or a run failed.
func repeatRuns(run []workload, n int, seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rows := spec.EndToEnd
	(&wallStats{}).report(func(name string, _ float64, _ string) {
		rows = append(rows, boundedMetric{Name: name})
	})
	code := 0
	fmt.Println("| workload | metric | median | q1 | q3 | iqr/median | range/median | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range run {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.name, seed+int64(i), err)
				code = 1
				continue
			}
			for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
				var name string
				var v float64
				if _, err := fmt.Sscanf(sc.Text(), w.name+"/%s %g", &name, &v); err == nil {
					values[name] = append(values[name], v)
				}
			}
		}
		for _, b := range rows {
			v := values[b.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			iqr, rng := (q3-q1)/q2, (sorted[len(sorted)-1]-sorted[0])/q2
			bound, flag := "none", ""
			if b.Bound > 0 {
				bound = strconv.FormatFloat(b.Bound, 'f', 2, 64)
				if iqr > b.Bound {
					flag = "OVER BOUND"
					code = 1
				}
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.4f | %.4f | %s | %s |\n", w.name, b.Name,
				formatValue(q2), formatValue(q1), formatValue(q3), iqr, rng, bound, flag)
		}
	}
	return code
}
