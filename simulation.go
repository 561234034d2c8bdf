package pacon

import (
	"errors"
	"fmt"
	"time"

	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
)

// SimulationConfig sizes a self-contained Pacon-on-DFS deployment: a
// BeeGFS-like cluster (1 MDS + data servers) plus client nodes, all on
// an in-process transport with the virtual-time latency model. This is
// the environment the examples and benchmarks run in; a production
// deployment would instead implement Backend against a real DFS client.
type SimulationConfig struct {
	// ClientNodes is the number of compute nodes (default 4).
	ClientNodes int
	// DataServers is the DFS data-server count (default 3, as in the
	// paper's testbed).
	DataServers int
	// Model overrides the latency model (default DefaultModel()).
	Model *LatencyModel
	// AdminCred owns the namespace root (default uid/gid 0).
	AdminCred Cred
	// OverTCP runs every service on real loopback TCP sockets instead of
	// the in-process transport — functionally identical, useful to
	// demonstrate (and test) transport independence.
	OverTCP bool
	// Obs, when non-nil, instruments the deployment: the transport
	// reports per-RPC wall latency to it, and regions created through
	// NewRegion inherit it for op tracing and pipeline histograms.
	Obs *Obs
	// ShardCount partitions the metadata service by subtree across that
	// many independent MDS shards (each with its own namespace and
	// service pool). 0, the default, is 1: one MDS, which every path
	// routes to.
	ShardCount int
	// SpreadRoots lists directories whose immediate children spread
	// across the shard pool (each child subtree hashes as one unit).
	// The roots themselves are mirrored on every shard. Only consulted
	// with more than one shard; a region's workspace should be listed
	// here.
	SpreadRoots []string
}

// Simulation is the assembled deployment.
type Simulation struct {
	cfg   SimulationConfig
	net   rpc.Network
	dfs   *dfs.Cluster
	nodes []string
	model LatencyModel
}

// NewSimulation builds the deployment with its checkpoint area in
// place. The examples, paconfs, the paper's figures and ablations and
// the chaos harness all run on what it assembles; only benchmark/ wires
// its own.
func NewSimulation(cfg SimulationConfig) *Simulation {
	if cfg.ClientNodes <= 0 {
		cfg.ClientNodes = 4
	}
	if cfg.DataServers <= 0 {
		cfg.DataServers = 3
	}
	model := DefaultModel()
	if cfg.Model != nil {
		model = *cfg.Model
	}
	var network rpc.Network = rpc.NewBus()
	if cfg.OverTCP {
		network = rpc.NewTCPNetwork()
	}
	if cfg.Obs != nil {
		// Both transports expose the observer seam; rpc.Network itself
		// stays minimal so third-party transports aren't forced to.
		if o, ok := network.(interface{ SetObserver(rpc.RPCObserver) }); ok {
			o.SetObserver(cfg.Obs)
		}
	}
	dataNodes := make([]string, cfg.DataServers)
	for i := range dataNodes {
		dataNodes[i] = fmt.Sprintf("storage%d", i+1)
	}
	cluster := dfs.NewClusterSharded(network, model, cfg.AdminCred, "storage0", cfg.ShardCount, cfg.SpreadRoots, dataNodes)
	// Shard-pool skew gauges ride the same registry as the region's
	// hotspot metrics (no-op when observability is off).
	cluster.RegisterHotMetrics(cfg.Obs)
	nodes := make([]string, cfg.ClientNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	// The checkpoint area is formatted off the clock, the way the root
	// is: written into its shard's tree, it costs no MDS request, so
	// every measurement starts on an idle metadata service.
	ckpt := cluster.MDSes[cluster.Shards.Owner("/.pacon")].Tree()
	if err := ckpt.Mkdir("/.pacon", fsapi.NewDirStat(cfg.AdminCred, 0o777)); err != nil {
		panic(fmt.Sprintf("pacon: format /.pacon: %v", err))
	}
	return &Simulation{cfg: cfg, net: network, dfs: cluster, nodes: nodes, model: model}
}

// Nodes returns the client node names.
func (s *Simulation) Nodes() []string { return s.nodes }

// Model returns the latency model in effect.
func (s *Simulation) Model() LatencyModel { return s.model }

// AdminClient returns a DFS client with the administrator credential —
// used to provision workspaces.
func (s *Simulation) AdminClient() *dfs.Client {
	return s.dfs.NewClient("admin", s.cfg.AdminCred, 0, 0)
}

// DFSClient returns a plain DFS client on a node with the given
// credential and strong-consistency (uncached) dentry behavior — the
// BeeGFS baseline the paper compares against.
func (s *Simulation) DFSClient(node string, cred Cred) *dfs.Client {
	return s.dfs.NewClient(node, cred, 0, 0)
}

// DFS exposes the underlying cluster for white-box inspection.
func (s *Simulation) DFS() *dfs.Cluster { return s.dfs }

// Net exposes the transport network.
func (s *Simulation) Net() rpc.Network { return s.net }

// Close releases transport resources (listeners in OverTCP mode).
func (s *Simulation) Close() {
	if n, ok := s.net.(*rpc.TCPNetwork); ok {
		n.Close()
	}
}

// MustMkdirAll provisions a directory path (and ancestors) as the
// administrator, panicking on failure. Intended for setup code.
func (s *Simulation) MustMkdirAll(path string, mode Mode) {
	admin := s.AdminClient()
	at := Time(0)
	full := ""
	for _, comp := range namespace.Components(path) {
		full += "/" + comp
		done, err := admin.Mkdir(at, full, mode)
		if err != nil && !errors.Is(err, ErrExist) {
			panic(fmt.Sprintf("pacon: provision %s: %v", full, err))
		}
		at = done
	}
}

// Deps wires a region running as cred to this simulation: its
// transport, its observability sink, and, per node, a DFS client with a
// node-local dentry cache (Pacon owns consistency above the DFS). A
// caller that wraps the backend replaces NewBackend around the one
// returned here.
func (s *Simulation) Deps(cred Cred) Deps {
	return Deps{
		Bus: s.net,
		Obs: s.cfg.Obs,
		NewBackend: func(node string) Backend {
			return s.dfs.NewClient(node, cred, 4096, time.Hour)
		},
	}
}

// NewRegion starts a consistent region on this simulation, wired by
// Deps(cfg.Cred).
func (s *Simulation) NewRegion(cfg RegionConfig) (*Region, error) {
	if cfg.Model == (LatencyModel{}) {
		cfg.Model = s.model
	}
	return NewRegion(cfg, s.Deps(cfg.Cred))
}
