package dfs

import (
	"fmt"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Cluster assembles one BeeGFS-like deployment on a transport: one or
// more MDSes plus data servers, mirroring the paper's testbed (1 MDS, 3
// data servers on dedicated storage nodes). Multiple MDSes partition
// the namespace by subtree and split the service load (§II.B's "scale
// the metadata server cluster" approach; see NewClusterSharded).
type Cluster struct {
	Net       rpc.Network
	Model     vclock.LatencyModel
	MDS       *MDS // first metadata server (kept for white-box access)
	MDSes     []*MDS
	MDSAddrs  []string
	Data      []*DataServer
	DataAddrs []string

	// Shards is the map every client of this cluster routes by: each
	// MDS holds an independent, subtree-partitioned namespace. A
	// NewCluster deployment carries a one-shard map with no spread
	// roots, on which every path goes to the one MDS.
	Shards *ShardMap
}

// NewCluster registers an MDS on mdsNode and one data server per entry
// of dataNodes. The namespace root is owned by rootCred.
func NewCluster(net rpc.Network, model vclock.LatencyModel, rootCred fsapi.Cred, mdsNode string, dataNodes []string) *Cluster {
	return newCluster(net, model, rootCred, []string{mdsNode + "/mds"}, nil, dataNodes)
}

// newCluster registers one metadata server per address, each with its
// own namespace tree, and one data server per data node.
func newCluster(net rpc.Network, model vclock.LatencyModel, rootCred fsapi.Cred, mdsAddrs, spreadRoots, dataNodes []string) *Cluster {
	c := &Cluster{Net: net, Model: model, MDSAddrs: mdsAddrs, Shards: NewShardMap(mdsAddrs, spreadRoots)}
	for i, addr := range mdsAddrs {
		m := newMDS(addr, model, rootCred, i)
		net.Register(addr, m.Service())
		c.MDSes = append(c.MDSes, m)
	}
	c.MDS = c.MDSes[0]
	for _, node := range dataNodes {
		addr := node + "/data"
		ds := NewDataServer(addr, model)
		c.Data = append(c.Data, ds)
		c.DataAddrs = append(c.DataAddrs, addr)
		net.Register(addr, ds.Service())
	}
	return c
}

// NewClusterSharded deploys a subtree-partitioned metadata service:
// `shards` MDSes on mdsNode, each owning an independent namespace tree.
// Structural paths (the given spread roots plus their ancestors and "/")
// are mirrored on every shard; each immediate child subtree of a
// structural directory hashes to one shard and everything deeper
// inherits it (parent affinity). Cross-shard renames run the two-phase
// xfer protocol. The map is fixed here: a path's shard never changes.
func NewClusterSharded(net rpc.Network, model vclock.LatencyModel, rootCred fsapi.Cred, mdsNode string, shards int, spreadRoots []string, dataNodes []string) *Cluster {
	addrs := make([]string, max(shards, 1))
	for i := range addrs {
		addrs[i] = fmt.Sprintf("%s/mds%d", mdsNode, i)
	}
	return newCluster(net, model, rootCred, addrs, spreadRoots, dataNodes)
}

// KillShard unregisters shard i's service — calls to it fail with
// ErrClosed until RecoverShard. In-flight calls finish normally.
func (c *Cluster) KillShard(i int) {
	c.Net.Unregister(c.MDSAddrs[i])
}

// RecoverShard re-registers shard i. Its namespace tree survives (the
// on-disk state), but the volatile intent log is cleared — every
// in-flight cross-shard protocol is implicitly aborted on this side.
func (c *Cluster) RecoverShard(i int) {
	c.MDSes[i].ClearIntents()
	c.Net.Register(c.MDSAddrs[i], c.MDSes[i].Service())
}

// OracleLookup resolves p directly against the authoritative tree — the
// one on the shard owning p. Used by convergence checkers that must
// bypass the RPC layer.
func (c *Cluster) OracleLookup(p string) (fsapi.Stat, error) {
	p = namespace.Clean(p)
	return c.oracleTree(p).Lookup(p)
}

// OracleExists reports whether p exists in the authoritative namespace,
// shard-aware like OracleLookup.
func (c *Cluster) OracleExists(p string) bool {
	p = namespace.Clean(p)
	return c.oracleTree(p).Exists(p)
}

// oracleTree is the tree of p's owner; for a mirrored path every mirror
// agrees and Owner names shard 0, the canonical one.
func (c *Cluster) oracleTree(p string) *namespace.Tree {
	return c.MDSes[c.Shards.Owner(p)].Tree()
}

// Inodes returns the inode number of every object some MDS shard holds,
// read off the trees directly like OracleLookup.
func (c *Cluster) Inodes() map[uint64]bool {
	held := make(map[uint64]bool)
	for _, m := range c.MDSes {
		m.Tree().Walk("/", func(_ string, ino uint64, _ fsapi.Stat) error {
			held[ino] = true
			return nil
		})
	}
	return held
}

// ChunksResident is how many chunks the data servers hold.
func (c *Cluster) ChunksResident() int {
	n := 0
	for _, ds := range c.Data {
		n += ds.ChunkCount()
	}
	return n
}

// NewClient builds a client on the given node. TTL 0 gives the paper's
// strong-consistency baseline behavior.
func (c *Cluster) NewClient(node string, cred fsapi.Cred, cacheCap int, ttl vclock.Duration) *Client {
	return NewClient(c.Net, ClientConfig{
		Node:           node,
		DataAddrs:      c.DataAddrs,
		Cred:           cred,
		Model:          c.Model,
		DentryCacheCap: cacheCap,
		DentryTTL:      ttl,
		Shards:         c.Shards,
	})
}
