package vclock

import "time"

// LatencyModel is the single calibration block for the virtual-time
// simulation (DESIGN.md §5). It stands in for the paper's TIANHE-II
// testbed: an InfiniBand-class interconnect, a BeeGFS MDS on an Intel
// P3600 NVMe SSD, IndexFS servers backed by LevelDB, and a memcached
// cluster co-located with the clients.
//
// The defaults were calibrated once so the paper's *ratios* hold (see
// EXPERIMENTS.md); every field is an ordinary value so ablation benches
// can sweep them.
type LatencyModel struct {
	// SameNodeRTT is the round trip between a client and a service on the
	// same node (loopback / IPC).
	SameNodeRTT Duration
	// CrossNodeRTT is the round trip between different nodes on the
	// IB-like fabric.
	CrossNodeRTT Duration
	// PerKB is the extra transfer time per KiB of payload on the wire.
	PerKB Duration

	// MDSReadCost is the service time of a read-only metadata op (lookup,
	// stat, readdir base) on the centralized MDS.
	MDSReadCost Duration
	// MDSWriteCost is the service time of a mutating metadata op (create,
	// mkdir, unlink, rmdir) on the MDS — it includes the NVMe journal
	// append, so it is several times the read cost.
	MDSWriteCost Duration
	// MDSLookupDepthCost is the extra per-component service time for a
	// lookup at path depth i (i × this): deeper dentries are colder in
	// the MDS-local file system, which is what makes the paper's Fig 2
	// loss super-linear in depth.
	MDSLookupDepthCost Duration
	// MDSReaddirEntryCost is the per-entry cost of a directory listing.
	MDSReaddirEntryCost Duration
	// MDSWorkers is the MDS service pool width.
	MDSWorkers int

	// DataChunkCost is the base service time for a data-server chunk op;
	// DataPerKB adds the per-KiB device cost.
	DataChunkCost Duration
	DataPerKB     Duration
	// DataWorkers is the per-data-server service pool width.
	DataWorkers int

	// LSMPutCost is the service time of an IndexFS-server insert (WAL
	// append without per-op fsync + memtable).
	LSMPutCost Duration
	// LSMGetHitCost is a positive point lookup: bloom pass + data-block
	// read from LevelDB.
	LSMGetHitCost Duration
	// LSMGetMissCost is a negative lookup filtered by the blooms (the
	// common case of create's existence check).
	LSMGetMissCost Duration
	// LSMScanEntryCost is the per-entry cost of an IndexFS prefix scan.
	LSMScanEntryCost Duration
	// PartitionCost is the per-directory-partition critical section an
	// insert holds (dirent-block update + GIGA+ split bookkeeping). One
	// directory has one partition per server, so a single hot directory
	// caps at servers/PartitionCost inserts per second — the contention
	// that separates the paper's single-application create numbers (Fig
	// 7) from the multi-application ones (Fig 8).
	PartitionCost Duration
	// IndexFSWorkers is the per-IndexFS-server pool width.
	IndexFSWorkers int

	// CacheOpCost is the service time of one memcached-like op (get, set,
	// cas, delete) on a Pacon distributed-cache server.
	CacheOpCost Duration
	// CacheWorkers is the per-cache-server pool width.
	CacheWorkers int

	// QueuePushCost is the client-side cost of publishing one operation
	// message into the commit queue (the paper uses ZeroMQ IPC).
	QueuePushCost Duration
	// ClientOverhead is the per-op client-side marshaling/bookkeeping
	// cost charged by every system's client library.
	ClientOverhead Duration
}

// Default returns the calibrated model. See EXPERIMENTS.md for the
// resulting paper-vs-measured ratios.
func Default() LatencyModel {
	return LatencyModel{
		SameNodeRTT:  8 * time.Microsecond,
		CrossNodeRTT: 80 * time.Microsecond,
		PerKB:        250 * time.Nanosecond,

		MDSReadCost:         5 * time.Microsecond,
		MDSWriteCost:        120 * time.Microsecond,
		MDSLookupDepthCost:  5 * time.Microsecond,
		MDSReaddirEntryCost: 300 * time.Nanosecond,
		MDSWorkers:          4,

		DataChunkCost: 60 * time.Microsecond,
		DataPerKB:     3 * time.Microsecond,
		DataWorkers:   8,

		LSMPutCost:       25 * time.Microsecond,
		LSMGetHitCost:    60 * time.Microsecond,
		LSMGetMissCost:   5 * time.Microsecond,
		LSMScanEntryCost: 500 * time.Nanosecond,
		PartitionCost:    55 * time.Microsecond,
		IndexFSWorkers:   4,

		CacheOpCost:  4 * time.Microsecond,
		CacheWorkers: 8,

		QueuePushCost:  28 * time.Microsecond,
		ClientOverhead: 8 * time.Microsecond,
	}
}

// RTT returns the round trip for a hop that is or is not node-local.
func (m LatencyModel) RTT(sameNode bool) Duration {
	if sameNode {
		return m.SameNodeRTT
	}
	return m.CrossNodeRTT
}

// OneWay returns half the RTT for the hop.
func (m LatencyModel) OneWay(sameNode bool) Duration { return m.RTT(sameNode) / 2 }

// Transfer returns the payload-size-dependent wire cost.
func (m LatencyModel) Transfer(bytes int) Duration {
	if bytes <= 0 {
		return 0
	}
	return Duration(int64(m.PerKB) * int64(bytes) / 1024)
}
