package main

import (
	"fmt"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

const (
	workspace   = "/bench"
	clientCount = 2 // closed-loop load goroutines = nproc on the reference host
	nodeCount   = 4 // region nodes: one cache server + one commit process each
)

var (
	adminCred = fsapi.Cred{UID: 0, GID: 0}
	appCred   = fsapi.Cred{UID: 1000, GID: 1000}
)

// deployOpts selects the variant of the one deployment shape every
// workload runs on. tracer and obs are nil on the end-to-end run.
type deployOpts struct {
	tcp      bool
	cacheCap int64 // RegionConfig.CacheCapacityBytes per node, 0 = unbounded
	tracer   *tracer
	obs      *obs.Obs
}

// deployment is a DFS cluster (1 MDS + 3 data servers), one Pacon region
// over nodeCount nodes and clientCount clients, built from the public
// constructors only.
type deployment struct {
	tcp     *rpc.TCPNetwork // non-nil when the transport needs closing
	cluster *dfs.Cluster
	region  *core.Region
	clients []*core.Client
}

func deploy(o deployOpts) (*deployment, error) {
	d := &deployment{}
	var net rpc.Network
	if o.tcp {
		d.tcp = rpc.NewTCPNetwork()
		net = d.tcp
	} else {
		net = rpc.NewBus()
	}
	if o.obs != nil {
		net.(interface{ SetObserver(rpc.RPCObserver) }).SetObserver(o.obs)
	}
	if o.tracer != nil {
		net = &tracedNet{Network: net, t: o.tracer}
	}
	model := vclock.Default()
	d.cluster = dfs.NewCluster(net, model, adminCred, "storage0", []string{"s1", "s2", "s3"})
	d.cluster.RegisterHotMetrics(o.obs)
	admin := d.cluster.NewClient("admin", adminCred, 0, 0)
	if _, err := admin.Mkdir(0, workspace, 0o777); err != nil {
		d.close()
		return nil, fmt.Errorf("provision %s: %w", workspace, err)
	}
	nodes := make([]string, nodeCount)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	region, err := core.NewRegion(core.RegionConfig{
		Name:               "bench",
		Workspace:          workspace,
		Nodes:              nodes,
		Cred:               appCred,
		CacheCapacityBytes: o.cacheCap,
		Model:              model,
	}, core.Deps{
		Bus: net,
		Obs: o.obs,
		NewBackend: func(node string) core.Backend {
			// Same client shape pacon.Simulation gives a region: a
			// node-local dentry cache with a long TTL.
			c := d.cluster.NewClient(node, appCred, 4096, time.Hour)
			if o.tracer != nil {
				return &tracedBackend{Client: c, t: o.tracer}
			}
			return c
		},
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("start region: %w", err)
	}
	d.region = region
	for i := 0; i < clientCount; i++ {
		c, err := region.NewClient(nodes[i])
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// close stops the region's commit processes and cache servers and, on
// TCP, every listener and pooled connection.
func (d *deployment) close() {
	if d.region != nil {
		d.region.Close()
	}
	if d.tcp != nil {
		d.tcp.Close()
	}
}
