package indexfs

import (
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// DefaultLeaseTTL matches IndexFS's short dentry leases: long enough to
// cover a burst of operations under one directory, short enough that the
// bounded client cache keeps churning under random access.
const DefaultLeaseTTL = 2 * time.Millisecond

// Cluster assembles an IndexFS deployment: one metadata server
// co-located with each client node (the paper's fair-comparison
// configuration).
type Cluster struct {
	Net     rpc.Network
	Model   vclock.LatencyModel
	Servers []*Server
	Addrs   []string
}

// ClusterConfig tunes a deployment.
type ClusterConfig struct {
	// LeaseTTL overrides DefaultLeaseTTL when > 0.
	LeaseTTL vclock.Duration
}

// NewCluster starts one server per node in nodes.
func NewCluster(net rpc.Network, model vclock.LatencyModel, nodes []string, cfg ClusterConfig) *Cluster {
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	c := &Cluster{Net: net, Model: model}
	for i, node := range nodes {
		addr := node + "/indexfs"
		s := NewServer(addr, ServerConfig{
			Index:    i,
			Model:    model,
			Workers:  model.IndexFSWorkers,
			LeaseTTL: ttl,
		})
		net.Register(addr, s.Service())
		c.Servers = append(c.Servers, s)
		c.Addrs = append(c.Addrs, addr)
	}
	return c
}

// NewClient builds a client on node. leaseCap 0 disables the client
// dentry cache.
func (c *Cluster) NewClient(node string, cred fsapi.Cred, leaseCap int, bulk bool) *Client {
	return NewClient(c.Net, ClientConfig{
		Node:          node,
		ServerAddrs:   c.Addrs,
		Cred:          cred,
		Model:         c.Model,
		LeaseCacheCap: leaseCap,
		Bulk:          bulk,
	})
}
