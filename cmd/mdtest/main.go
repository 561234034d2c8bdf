// Command mdtest is a standalone mdtest-like metadata benchmark against
// any of the three systems (BeeGFS-like DFS, IndexFS-like middleware,
// Pacon), mirroring the LLNL tool the paper drives its evaluation with.
//
// Usage:
//
//	mdtest -sys pacon -nodes 16 -clients 20 -items 100
//	mdtest -sys beegfs -depth 6 -fanout 5 -items 50   # path traversal
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pacon/internal/bench"
	"pacon/internal/workload"
)

func main() {
	var (
		sys     = flag.String("sys", "pacon", "system under test: beegfs | indexfs | pacon")
		nodes   = flag.Int("nodes", 4, "client nodes")
		clients = flag.Int("clients", 10, "clients per node")
		items   = flag.Int("items", 100, "items per client per phase")
		depth   = flag.Int("depth", 0, "if >0, build a tree of this depth and random-stat its leaves")
		fanout  = flag.Int("fanout", 5, "tree fanout for -depth mode")
		seed    = flag.Int64("seed", 1, "random seed")
		trace   = flag.String("trace", "", "replay a trace file instead of the standard phases")
	)
	flag.Parse()

	system, err := parseSystem(*sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := bench.Default()
	cfg.MaxNodes = *nodes
	cfg.ClientsPerNode = *clients
	cfg.ItemsPerClient = *items

	if *trace != "" {
		if err := replayTraceFile(cfg, system, *trace); err != nil {
			fmt.Fprintf(os.Stderr, "mdtest: %v\n", err)
			os.Exit(1)
		}
		return
	}

	res, err := bench.RunMdtest(cfg, system, bench.MdtestSpec{
		Depth:  *depth,
		Fanout: *fanout,
		Seed:   *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdtest: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("mdtest on %s: %d nodes x %d clients, %d items/client\n",
		system, *nodes, *clients, *items)
	printPhase := func(name string, r workload.Result) {
		if r.Ops == 0 {
			return
		}
		fmt.Printf("  %-12s %10d ops  %12v  %12.0f OPS\n", name, r.Ops, r.Elapsed, r.OPS())
	}
	printPhase("mkdir", res.Mkdir)
	printPhase("create", res.Create)
	printPhase("stat", res.Stat)
	printPhase("stat-leaves", res.StatLeaves)
	printPhase("remove", res.Remove)
}

func replayTraceFile(cfg bench.Config, system bench.System, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ops, err := workload.ParseTrace(f)
	if err != nil {
		return err
	}
	res, err := bench.ReplayTrace(cfg, system, ops)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s on %s: %d ops in %v (%.0f OPS), %d errors\n",
		path, system, res.Ops, res.Elapsed, res.OPS(), res.Errors)
	kinds := make([]string, 0, len(res.PerKind))
	for kind := range res.PerKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Printf("  %-8s %d\n", kind, res.PerKind[kind])
	}
	return nil
}

func parseSystem(s string) (bench.System, error) {
	switch s {
	case "beegfs":
		return bench.BeeGFS, nil
	case "indexfs":
		return bench.IndexFS, nil
	case "pacon":
		return bench.Pacon, nil
	default:
		return "", fmt.Errorf("mdtest: unknown system %q (beegfs | indexfs | pacon)", s)
	}
}
