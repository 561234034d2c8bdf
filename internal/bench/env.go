// Package bench is the paper's experiment harness: one runner per figure
// of its motivation and evaluation sections (Figs 1, 2, 7, 8, 9, 10, 11,
// 12 in figures.go), plus the ablations (ablation.go), sensitivity sweeps
// (sensitivity.go) and the BatchFS extension (batchfs.go). Each rebuilds
// a fresh deployment per data point and drives it with the workload
// package. cmd/paconbench, cmd/mdtest and cmd/madbench (tools.go) and
// bench_test.go are thin wrappers over this package.
package bench

import (
	"fmt"

	"pacon"
	"pacon/internal/core"
	"pacon/internal/fsapi"
	"pacon/internal/indexfs"
	"pacon/internal/vclock"
	"pacon/internal/workload"
)

// System identifies a system under test.
type System string

// Systems compared in the paper.
const (
	BeeGFS    System = "BeeGFS"
	IndexFS   System = "IndexFS"
	Pacon     System = "Pacon"
	Memcached System = "Memcached" // raw distributed cache (Fig 10 baseline)
)

// Config scales the whole harness.
type Config struct {
	// Model is the latency model (Default() if zero).
	Model vclock.LatencyModel
	// MaxNodes is the client-cluster size (paper: 16).
	MaxNodes int
	// ClientsPerNode is the per-node client count (paper: 20).
	ClientsPerNode int
	// ItemsPerClient is the per-client op count per phase.
	ItemsPerClient int
	// MADbenchProcsPerNode and MADbenchFileMB size Fig 12.
	MADbenchProcsPerNode int
	MADbenchFileMB       int
	// MDSShards is the deployment's SimulationConfig.ShardCount: this
	// many subtree-partitioned MDS shards (0 and 1 are the one MDS).
	MDSShards int
}

// Default returns the paper-scale configuration (runs in minutes).
func Default() Config {
	return Config{
		Model:                vclock.Default(),
		MaxNodes:             16,
		ClientsPerNode:       20,
		ItemsPerClient:       100,
		MADbenchProcsPerNode: 16,
		MADbenchFileMB:       4,
	}
}

// Quick returns a reduced configuration for smoke runs and go test.
func Quick() Config {
	return Config{
		Model:                vclock.Default(),
		MaxNodes:             8,
		ClientsPerNode:       10,
		ItemsPerClient:       30,
		MADbenchProcsPerNode: 4,
		MADbenchFileMB:       1,
	}
}

var (
	adminCred = fsapi.Cred{UID: 0, GID: 0}
	appCred   = fsapi.Cred{UID: 1000, GID: 1000}
)

// env is one fresh deployment: a pacon.Simulation plus (lazily) IndexFS
// servers or Pacon regions over its client nodes.
type env struct {
	cfg   Config
	sim   *pacon.Simulation
	nodes []string

	indexfs *indexfs.Cluster
	regions []*core.Region

	provisioned []string
}

// newEnv builds a deployment with n client nodes and the paper's storage
// side (1 MDS + 3 data servers). With MDSShards > 1 the metadata service
// is subtree-partitioned with /w (every experiment's workspace) as the
// spread root, so each client subtree under it hashes to one shard.
func newEnv(cfg Config, n int) *env {
	sim := pacon.NewSimulation(pacon.SimulationConfig{
		ClientNodes: n,
		Model:       &cfg.Model,
		AdminCred:   adminCred,
		ShardCount:  cfg.MDSShards,
		SpreadRoots: []string{"/w"},
	})
	return &env{cfg: cfg, sim: sim, nodes: sim.Nodes()}
}

// close stops the regions started in this env (IndexFS servers hold
// nothing to release).
func (e *env) close() {
	for _, r := range e.regions {
		r.Close()
	}
	e.sim.Close()
}

// provision creates a world-accessible directory as the administrator —
// on the DFS, and on the IndexFS namespace too if it is (or becomes)
// active: IndexFS manages its own metadata above the DFS.
func (e *env) provision(dirs ...string) error {
	admin := e.sim.AdminClient()
	for _, d := range dirs {
		if _, err := admin.Mkdir(0, d, 0o777); err != nil {
			return err
		}
	}
	e.provisioned = append(e.provisioned, dirs...)
	if e.indexfs != nil {
		return e.provisionIndexFS(dirs)
	}
	return nil
}

func (e *env) provisionIndexFS(dirs []string) error {
	admin := e.indexfs.NewClient(e.nodes[0], adminCred, 0, false)
	for _, d := range dirs {
		if _, err := admin.Mkdir(0, d, 0o777); err != nil {
			return err
		}
	}
	return nil
}

// beegfsClients returns strong-consistency DFS clients spread over the
// nodes (the paper's BeeGFS baseline).
func (e *env) beegfsClients(n int) []workload.Client {
	out := make([]workload.Client, n)
	for i := range out {
		out[i] = e.sim.DFSClient(e.nodes[i%len(e.nodes)], appCred)
	}
	return out
}

// indexfsClients starts an IndexFS deployment co-located with the client
// nodes (the paper's fair comparison) and returns its clients.
func (e *env) indexfsClients(n int) ([]workload.Client, error) {
	if e.indexfs == nil {
		e.indexfs = indexfs.NewCluster(e.sim.Net(), e.cfg.Model, e.nodes, indexfs.ClusterConfig{})
		if err := e.provisionIndexFS(e.provisioned); err != nil {
			return nil, err
		}
	}
	out := make([]workload.Client, n)
	for i := range out {
		out[i] = e.indexfs.NewClient(e.nodes[i%len(e.nodes)], appCred, 1024, false)
	}
	return out, nil
}

// paconRegion starts a consistent region over the given nodes with
// workspace ws; mutate, when non-nil, adjusts its config first.
func (e *env) paconRegion(name, ws string, nodes []string, mutate func(*core.RegionConfig)) (*core.Region, error) {
	cfg := core.RegionConfig{
		Name:      name,
		Workspace: ws,
		Nodes:     nodes,
		Cred:      appCred,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	region, err := e.sim.NewRegion(cfg)
	if err != nil {
		return nil, err
	}
	e.regions = append(e.regions, region)
	return region, nil
}

// paconClients starts one region over all nodes and returns n clients.
// The region's name is part of every cache-server address, and so of
// key placement: "bench" for the figures, "ablation" for the variants.
func (e *env) paconClients(n int, name, ws string, mutate func(*core.RegionConfig)) ([]workload.Client, error) {
	region, err := e.paconRegion(name, ws, e.nodes, mutate)
	if err != nil {
		return nil, err
	}
	out := make([]workload.Client, n)
	for i := range out {
		c, err := region.NewClient(e.nodes[i%len(e.nodes)])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// clientsFor builds n clients of the given system working under ws.
func (e *env) clientsFor(sys System, n int, ws string) ([]workload.Client, error) {
	switch sys {
	case BeeGFS:
		return e.beegfsClients(n), nil
	case IndexFS:
		return e.indexfsClients(n)
	case Pacon:
		return e.paconClients(n, "bench", ws, nil)
	default:
		return nil, fmt.Errorf("bench: unknown system %q", sys)
	}
}

// nodesFor returns how many client nodes serve `clients` clients at the
// configured per-node density (the paper grows nodes with clients).
func (c Config) nodesFor(clients int) int {
	n := (clients + c.ClientsPerNode - 1) / c.ClientsPerNode
	if n < 1 {
		n = 1
	}
	if n > c.MaxNodes {
		n = c.MaxNodes
	}
	return n
}
