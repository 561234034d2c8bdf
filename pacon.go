// Package pacon is the public API of this repository: a library that
// adds a partially consistent client-side metadata cache to a
// distributed file system, reproducing "Pacon: Improving Scalability and
// Efficiency of Metadata Service through Partial Consistency"
// (Liu, Lu, Chen, Zhao — IPDPS 2020).
//
// The global namespace is split into consistent regions, one per HPC
// application workspace. Inside a region, clients share a distributed
// in-memory metadata cache with strong consistency; metadata writes
// apply to the cache synchronously and commit to the DFS asynchronously
// through per-node commit queues. Batch permission management replaces
// path traversal; small files ride inline with their metadata; rmdir and
// readdir synchronize through barrier commit.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	sim := pacon.NewSimulation(pacon.SimulationConfig{ClientNodes: 4})
//	sim.MustMkdirAll("/proj/app1", 0o777)
//	region, _ := sim.NewRegion(pacon.RegionConfig{
//	    Name:      "app1",
//	    Workspace: "/proj/app1",
//	    Nodes:     sim.Nodes(),
//	    Cred:      pacon.Cred{UID: 1000, GID: 1000},
//	})
//	defer region.Close()
//	client, _ := region.NewClient(sim.Nodes()[0])
//	now, _ := client.Create(0, "/proj/app1/out.dat", 0o644)
//	...
//
// All operations carry virtual timestamps (pacon.Time): the library runs
// real code over a virtual-time performance model, so experiments
// reproduce the paper's latency-driven behavior deterministically. See
// DESIGN.md §5.
package pacon

import (
	"pacon/internal/core"
	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// Core types, aliased so callers need only this package.
type (
	// Stat is a file or directory's metadata record.
	Stat = fsapi.Stat
	// Cred identifies the system user an application runs as.
	Cred = fsapi.Cred
	// Mode is a POSIX-style permission bit set.
	Mode = fsapi.Mode
	// FileType distinguishes files from directories.
	FileType = fsapi.FileType
	// DirEntry is one readdir row.
	DirEntry = fsapi.DirEntry

	// Region is a running consistent region.
	Region = core.Region
	// RegionConfig declares a consistent region.
	RegionConfig = core.RegionConfig
	// RegionStats reports commit-module counters.
	RegionStats = core.RegionStats
	// Deps wires a region to its transport and DFS.
	Deps = core.Deps
	// Backend is the underlying DFS interface Pacon commits to.
	Backend = core.Backend
	// Client is an application process's handle on a region.
	Client = core.Client
	// PermSpec is a region's batch permission information.
	PermSpec = core.PermSpec
	// PermEntry is one permission declaration.
	PermEntry = core.PermEntry
	// SpecialPerm overrides the normal permission for a path or subtree.
	SpecialPerm = core.SpecialPerm

	// Health is a region's aggregated health snapshot: consistency-lag
	// watermarks, queue state, drop counters, and the last audit verdict
	// folded into a typed status.
	Health = core.Health
	// HealthStatus is the typed verdict: ok, degraded, or stalled.
	HealthStatus = core.HealthStatus
	// AuditVerdict is the summary a divergence audit leaves with the
	// region (see internal/audit for the auditor itself).
	AuditVerdict = core.AuditVerdict

	// Obs is an observability sink: op tracing, latency histograms,
	// counters/gauges, and a Prometheus-text /metrics handler. Attach
	// one via Deps.Obs (or SimulationConfig.Obs); nil disables all
	// instrumentation at the cost of one branch per hook.
	Obs = obs.Obs
	// Quantiles is a histogram digest (count, p50/p95/p99 in ns).
	Quantiles = obs.Quantiles
	// CritPath is one kept span's cross-node critical path: wall time
	// attributed to named pipeline segments plus the ordered event
	// timeline across client, cache-server and DFS nodes.
	CritPath = obs.CritPath
	// Segment is one named slice of a critical path (e.g. cache_rpc,
	// queue_wait, dfs_apply) and the wall time charged to it.
	Segment = obs.Segment
	// TraceStats reports the causal tracer's sampling counters: head
	// rate, spans sampled, anomalous spans tail-kept, flight dumps.
	TraceStats = obs.TraceStats
	// FlightDump is the anomaly flight recorder's snapshot shape (the
	// JSON written on health/audit/chaos triggers).
	FlightDump = obs.FlightDump
	// HotReport is the merged hotspot snapshot: top heavy-hitter paths,
	// hot subtrees (split candidates) and per-node load skew.
	HotReport = obs.HotReport
	// HotKey is one heavy-hitter table entry (count is a space-saving
	// upper bound; ErrBound the inherited overestimate).
	HotKey = obs.HotKey
	// SkewStats summarizes load imbalance (max/mean and coefficient of
	// variation, permille-encoded).
	SkewStats = obs.SkewStats
	// NodeLoad is one node's recorded-op total in a HotReport.
	NodeLoad = obs.NodeLoad

	// Time is a virtual timestamp (nanoseconds since run start).
	Time = vclock.Time
	// LatencyModel is the simulation's calibration block.
	LatencyModel = vclock.LatencyModel
	// Pacer bounds virtual-clock skew across concurrent simulated
	// clients; attach one via Client.Pace when running many clients.
	Pacer = vclock.Pacer
)

// File types.
const (
	TypeFile = fsapi.TypeFile
	TypeDir  = fsapi.TypeDir
)

// Health statuses, worst to best: a region is stalled when an audit
// found divergence or the staleness watermark blew the stalled
// threshold; degraded on parked ops or a watermark past the degraded
// threshold; ok otherwise.
const (
	HealthOK       = core.HealthOK
	HealthDegraded = core.HealthDegraded
	HealthStalled  = core.HealthStalled
)

// Sentinel errors, re-exported for errors.Is.
var (
	ErrNotExist   = fsapi.ErrNotExist
	ErrExist      = fsapi.ErrExist
	ErrNotDir     = fsapi.ErrNotDir
	ErrIsDir      = fsapi.ErrIsDir
	ErrNotEmpty   = fsapi.ErrNotEmpty
	ErrPermission = fsapi.ErrPermission
	ErrStale      = fsapi.ErrStale
	ErrReadOnly   = fsapi.ErrReadOnly
	ErrOutOfSpace = fsapi.ErrOutOfSpace
)

// NewRegion starts a consistent region (see core.NewRegion).
func NewRegion(cfg RegionConfig, deps Deps) (*Region, error) {
	return core.NewRegion(cfg, deps)
}

// DefaultModel returns the calibrated latency model (TIANHE-II-like
// testbed: IB fabric, NVMe MDS, co-located cache/IndexFS servers).
func DefaultModel() LatencyModel { return vclock.Default() }

// NewObs creates an observability sink with the pipeline-stage
// histograms pre-registered. Wall-clock only: it never touches virtual
// time, so enabling it does not change simulated results.
func NewObs() *Obs { return obs.New() }

// NewPacer creates a virtual-time pacer for n concurrent clients.
func NewPacer(n int, window vclock.Duration) *Pacer { return vclock.NewPacer(n, window) }
