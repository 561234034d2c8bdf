package dfs

import (
	"pacon/internal/obs"
)

// RegisterHotMetrics exports the metadata-service pool's size
// (mds_shards), the chunks the data servers hold (dfs_chunks_resident:
// it falls when removes free their files' bytes) and load-skew gauges
// through an observability registry:
// imbalance of served ops and of accumulated virtual queue wait across the
// MDS shards. Both are permille ratios (see obs.Skew) — a hot subtree
// concentrates its traffic on the shard that owns it, so a max/mean well
// above 1000 on a sharded cluster is the shard-side face of a path hotspot
// and the signal a rebalancer would act on. No-op on a nil registry; on a
// single-MDS cluster the gauges read a flat 1000.
func (c *Cluster) RegisterHotMetrics(o *obs.Obs) {
	if o == nil {
		return
	}
	o.RegisterGauge("mds_shards", func() int64 { return int64(len(c.MDSes)) })
	o.RegisterGauge("dfs_chunks_resident", func() int64 { return int64(c.ChunksResident()) })
	shardLoads := func(read func(m *MDS) int64) []int64 {
		loads := make([]int64, len(c.MDSes))
		for i, m := range c.MDSes {
			loads[i] = read(m)
		}
		return loads
	}
	servedOps := func(m *MDS) int64 {
		st := m.Stats()
		return st.Lookups + st.Reads + st.Writes
	}
	queueWait := func(m *MDS) int64 { return int64(m.Resource().QueueWait()) }
	o.RegisterGauge("hot_shard_ops_maxmean_permille", func() int64 {
		return obs.Skew(shardLoads(servedOps)).MaxMeanPermille
	})
	o.RegisterGauge("hot_shard_ops_cv_permille", func() int64 {
		return obs.Skew(shardLoads(servedOps)).CVPermille
	})
	o.RegisterGauge("hot_shard_queue_wait_maxmean_permille", func() int64 {
		return obs.Skew(shardLoads(queueWait)).MaxMeanPermille
	})
	o.RegisterGauge("hot_shard_queue_wait_cv_permille", func() int64 {
		return obs.Skew(shardLoads(queueWait)).CVPermille
	})
}
