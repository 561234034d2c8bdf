package bench

import (
	"fmt"

	"pacon/internal/workload"
)

// MdtestSpec selects the optional tree mode of RunMdtest.
type MdtestSpec struct {
	// Depth > 0 switches to the path-traversal mode: build a tree and
	// random-stat its leaves instead of the flat mkdir/create/stat run.
	Depth  int
	Fanout int
	Seed   int64
}

// MdtestResult carries each executed phase (zero-valued when skipped).
type MdtestResult struct {
	Mkdir, Create, Stat, StatLeaves, Remove workload.Result
}

// RunMdtest is the standalone mdtest entry point used by cmd/mdtest: a
// full deployment of sys at cfg's scale, driven through the standard
// phases or the tree/stat-leaves mode.
func RunMdtest(cfg Config, sys System, spec MdtestSpec) (MdtestResult, error) {
	var out MdtestResult
	e := newEnv(cfg, cfg.MaxNodes)
	defer e.close()
	if err := e.provision("/w"); err != nil {
		return out, err
	}
	clients := cfg.MaxNodes * cfg.ClientsPerNode
	cls, err := e.clientsFor(sys, clients, "/w")
	if err != nil {
		return out, err
	}
	md := workload.NewMdtest(cls, "/w", cfg.ItemsPerClient, spec.Seed)

	if spec.Depth > 0 {
		fanout := spec.Fanout
		if fanout <= 0 {
			fanout = 5
		}
		leaves, err := md.BuildTree(fanout, spec.Depth)
		if err != nil {
			return out, fmt.Errorf("build tree: %w", err)
		}
		if out.StatLeaves, err = md.StatLeavesPhase(leaves); err != nil {
			return out, err
		}
		return out, nil
	}

	if out.Mkdir, err = md.MkdirPhase(); err != nil {
		return out, err
	}
	if out.Create, err = md.CreatePhase(); err != nil {
		return out, err
	}
	if out.Stat, err = md.StatPhase(); err != nil {
		return out, err
	}
	if out.Remove, err = md.RemovePhase(); err != nil {
		return out, err
	}
	return out, nil
}

// RunMADbench is the standalone MADbench2 entry point used by
// cmd/madbench and fig12.
func RunMADbench(cfg Config, sys System) (workload.MADbenchResult, error) {
	e := newEnv(cfg, cfg.MaxNodes)
	defer e.close()
	if err := e.provision("/w"); err != nil {
		return workload.MADbenchResult{}, err
	}
	n := cfg.MaxNodes * cfg.MADbenchProcsPerNode
	cls, err := e.clientsFor(sys, n, "/w")
	if err != nil {
		return workload.MADbenchResult{}, err
	}
	fcs := make([]workload.FileClient, len(cls))
	for i, c := range cls {
		fc, ok := c.(workload.FileClient)
		if !ok {
			return workload.MADbenchResult{}, fmt.Errorf("bench: %s client lacks a data plane", sys)
		}
		fcs[i] = fc
	}
	mb := workload.NewMADbench(fcs, "/w", cfg.MADbenchFileMB<<20, 1, workload.DefaultComputeTime)
	return mb.Run()
}

// ReplayTrace replays a parsed op trace against a fresh deployment of
// sys (cmd/mdtest -trace). The workspace /w is provisioned; trace paths
// should live under it.
func ReplayTrace(cfg Config, sys System, ops []workload.TraceOp) (workload.TraceResult, error) {
	e := newEnv(cfg, cfg.MaxNodes)
	defer e.close()
	if err := e.provision("/w"); err != nil {
		return workload.TraceResult{}, err
	}
	clients := cfg.MaxNodes * cfg.ClientsPerNode
	cls, err := e.clientsFor(sys, clients, "/w")
	if err != nil {
		return workload.TraceResult{}, err
	}
	return workload.ReplayTrace(cls, ops)
}
