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
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/indexfs"
	"pacon/internal/rpc"
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
	// MDSShards deploys the subtree-partitioned metadata service with
	// this many MDS shards instead of the single MDS
	// (0 = unsharded; 1 = sharded code path with one shard, the honest
	// router-overhead baseline).
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

// env is one fresh deployment: a DFS cluster plus (lazily) IndexFS
// servers or Pacon regions over a set of client nodes.
type env struct {
	cfg     Config
	bus     *rpc.Bus
	cluster *dfs.Cluster
	nodes   []string

	indexfs *indexfs.Cluster
	regions []*core.Region

	provisioned []string
}

// newEnv builds a deployment with n client nodes and the paper's storage
// side (1 MDS + 3 data servers).
func newEnv(cfg Config, n int) *env {
	bus := rpc.NewBus()
	var cluster *dfs.Cluster
	if cfg.MDSShards >= 1 {
		// Subtree-partitioned MDS pool: /w (every experiment's workspace)
		// is the spread root, so each client subtree under it hashes to
		// one shard.
		cluster = dfs.NewClusterSharded(bus, cfg.Model, adminCred, "storage0", cfg.MDSShards, []string{"/w"}, []string{"s1", "s2", "s3"})
	} else {
		cluster = dfs.NewCluster(bus, cfg.Model, adminCred, "storage0", []string{"s1", "s2", "s3"})
	}
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	return &env{cfg: cfg, bus: bus, cluster: cluster, nodes: nodes}
}

// close stops the regions started in this env (IndexFS servers hold
// nothing to release).
func (e *env) close() {
	for _, r := range e.regions {
		r.Close()
	}
}

// provision creates a world-accessible directory as the administrator —
// on the DFS, and on the IndexFS namespace too if it is (or becomes)
// active: IndexFS manages its own metadata above the DFS.
func (e *env) provision(dirs ...string) error {
	admin := e.cluster.NewClient("admin", adminCred, 0, 0)
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
		out[i] = e.cluster.NewClient(e.nodes[i%len(e.nodes)], appCred, 0, 0)
	}
	return out
}

// indexfsClients starts an IndexFS deployment co-located with the client
// nodes (the paper's fair comparison) and returns its clients.
func (e *env) indexfsClients(n int) ([]workload.Client, error) {
	if e.indexfs == nil {
		e.indexfs = indexfs.NewCluster(e.bus, e.cfg.Model, e.nodes, indexfs.ClusterConfig{})
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
// workspace ws.
func (e *env) paconRegion(name, ws string, nodes []string) (*core.Region, error) {
	region, err := core.NewRegion(core.RegionConfig{
		Name:      name,
		Workspace: ws,
		Nodes:     nodes,
		Cred:      appCred,
		Model:     e.cfg.Model,
	}, core.Deps{
		Bus: e.bus,
		NewBackend: func(node string) core.Backend {
			return e.cluster.NewClient(node, appCred, 4096, time.Hour)
		},
	})
	if err != nil {
		return nil, err
	}
	e.regions = append(e.regions, region)
	return region, nil
}

// paconClients starts one region over all nodes and returns n clients.
func (e *env) paconClients(n int, ws string) ([]workload.Client, error) {
	region, err := e.paconRegion("bench", ws, e.nodes)
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
		return e.paconClients(n, ws)
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
