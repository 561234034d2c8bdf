// Command paconbench regenerates the paper's tables and figures, its
// ablations and its sensitivity sweeps. Each experiment rebuilds fresh
// deployments of BeeGFS, IndexFS-on-BeeGFS and Pacon-on-BeeGFS per data
// point and reports the same series the paper plots, plus derived
// headline ratios. The repository's benchmark is the separate module in
// benchmark/.
//
// Usage:
//
//	paconbench -all               # every experiment at paper scale
//	paconbench -fig fig7          # one experiment
//	paconbench -quick -all        # reduced scale (~seconds)
//	paconbench -all -csv out/     # also write CSV files
//	paconbench -list              # list experiment ids
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pacon/internal/bench"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		fig    = flag.String("fig", "", "run one experiment (e.g. fig7; 'fig' prefix optional)")
		quick  = flag.Bool("quick", false, "reduced scale for smoke runs")
		csvDir = flag.String("csv", "", "also write <id>.csv files into this directory")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		debug  = flag.String("debug", "", "serve /debug/vars and /debug/pprof on this address while experiments run")
	)
	flag.Parse()

	if *debug != "" {
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debug, mux); err != nil {
				fmt.Fprintln(os.Stderr, "paconbench: debug server:", err)
			}
		}()
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
	}

	var ids []string
	switch {
	case *all:
		ids = bench.IDs()
	case *fig != "":
		id := *fig
		// Bare numbers are figures; named experiments pass through as-is.
		if _, err := strconv.Atoi(id); err == nil {
			id = "fig" + id
		}
		ids = []string{id}
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("# paconbench: %d client nodes x %d clients/node, %d items/client\n\n",
		cfg.MaxNodes, cfg.ClientsPerNode, cfg.ItemsPerClient)

	for _, id := range ids {
		start := time.Now()
		figs, err := bench.Run(id, cfg)
		for _, f := range figs {
			fmt.Println(f.String())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				path := filepath.Join(*csvDir, f.ID+".csv")
				if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paconbench:", err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v wall time]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
