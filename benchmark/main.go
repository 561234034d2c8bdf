// Command benchmark is the repository's benchmark: four workloads driven
// by two closed-loop clients against a Pacon deployment built from the
// public constructors, reporting the end-to-end metrics over a fixed
// number of fixed-op-count epochs and, in a separate traced run, a
// per-layer block. See README.md in this directory and BENCHMARK.json at
// the root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// traceEpochs is the timed epoch count of each traced-run variant;
// isolatedCalls the call count per round of each isolated per-layer call.
const (
	traceEpochs   = 8
	isolatedCalls = 20000
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "workload seed")
		seconds      = flag.Int("seconds", 15, "measured seconds per workload on the reference host: buys seconds*1000/epochMillis timed epochs")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, 1: traced run and per-layer metrics")
		repeat       = flag.Int("repeat", 0, "rerun the end-to-end benchmark N times with seeds seed..seed+N-1 and print the spread")
		outDir       = flag.String("out", "out", "directory for trace files")
	)
	flag.Parse()

	run := workloads
	if *workloadName != "all" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		run = []workload{*w}
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(run, *repeat, *seed, *seconds))
	}

	hostWarmup(2 * time.Second)
	ok := true
	for i := range run {
		w := &run[i]
		var res *result
		var err error
		if *trace == 0 {
			res, err = runEndToEnd(w, fullSizing, *seed, *seconds*1000/epochMillis, endToEndSetups)
		} else {
			res, err = runTraced(w, fullSizing, *seed, traceEpochs, isolatedCalls, *outDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.print()
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

// hostWarmup spins every core before anything is timed: on the shared
// reference host a fresh process runs 2× slow for its first second.
func hostWarmup(d time.Duration) {
	done := make(chan struct{})
	for i := 0; i < clientCount; i++ {
		go func() {
			x := uint64(1)
			for start := time.Now(); time.Since(start) < d; {
				for k := 0; k < 1<<16; k++ {
					splitmix64(&x)
				}
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < clientCount; i++ {
		<-done
	}
}

// print writes one "workload/metric value unit" line per metric, the
// epoch and latency sample counts, the oracle verdict and, last, the
// JSON object the benchmark contract prescribes.
func (r *result) print() {
	fmt.Print(strings.Join(r.lines, ""))
	fmt.Printf("%s/epochs %d count\n", r.workload, r.epochs)
	fmt.Printf("%s/latency_samples %d count\n", r.workload, r.samples)
	verdict := "ok"
	if !r.correct {
		verdict = "FAILED"
	}
	fmt.Printf("%s/oracle %s (%d attempted, %d failed)\n", r.workload, verdict, r.attempted, r.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}
