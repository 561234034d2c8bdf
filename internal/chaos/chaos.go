// Package chaos is a randomized fault-injection harness for the Pacon
// core. One Run builds a full deployment (DFS cluster + consistent
// region), drives concurrent clients through a mixed workload while
// injecting backend commit failures, eviction pressure, commit stalls
// and rmdir races, then drains the region and checks convergence: the
// distributed cache, the DFS and an in-memory oracle must agree.
//
// The workload is path-affine by construction: mutations on any given
// path come from one client only, except for zones whose races the
// design defines (create-create on hot paths, creates racing an rmdir).
// Cross-client mutation of the same path is outside the seed design's
// contract — different nodes' commit queues apply same-path ops in
// unspecified relative order — so the harness never generates it.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacon"
	"pacon/internal/audit"
	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

var (
	rootCred = fsapi.Cred{UID: 0, GID: 0}
	appCred  = fsapi.Cred{UID: 1000, GID: 1000}
)

// Config parameterizes one chaos schedule. The zero value is usable:
// withDefaults fills in a moderate deployment.
type Config struct {
	// Seed drives every random choice (workload mix, fault points).
	// Distinct seeds give distinct schedules; the interleaving itself
	// still comes from the scheduler, which is the point.
	Seed int64
	// Nodes is the region size (cache server + commit process each).
	Nodes int
	// Clients is the number of concurrent workload goroutines.
	Clients int
	// Ops is the number of operations each client performs.
	Ops int
	// CacheCapacityBytes bounds each cache server; small values force
	// the round-robin eviction path to run concurrently with the
	// workload. 0 = unlimited.
	CacheCapacityBytes int64
	// FaultRate is the probability that an injected backend mutation
	// fails with ErrNotExist (a resubmittable commit failure).
	FaultRate float64
	// MaxFaultsPerPath caps injected failures per path so resubmission
	// always converges well inside the region's retry budget.
	MaxFaultsPerPath int
	// StallEveryN sleeps on every Nth injected-surface backend call,
	// stalling commit processes so queues back up behind them.
	StallEveryN int
	// Rmdir enables the doomed-directory zone: concurrent creates race
	// a recursive rmdir on their parent. With it enabled, ops may be
	// legitimately dropped (a create accepted in the closing instants
	// of the rmdir window has no parent left to commit under).
	Rmdir bool
	// DoomedDirs is the number of pre-created rmdir targets.
	DoomedDirs int
	// CommitBatchSize sets the region's dequeue/apply batch width
	// (0 = the region default; 1 = op-at-a-time).
	CommitBatchSize int
	// LoseOneCommit deliberately breaks the schedule: the first
	// creation the commit side applies reports success without ever
	// reaching the DFS. The run must then end with violations — the
	// knob exists to self-test the failure path end to end (the
	// convergence oracle, the divergence auditor, and the flight
	// recorder's dump of the lost op's cross-node span).
	LoseOneCommit bool
	// Shards is the simulation's ShardCount: > 1 backs the region with a
	// subtree-partitioned MDS pool ("/w" spread across that many shards)
	// instead of one MDS. All existing zones run unchanged on top.
	Shards int
	// KillShard unregisters one busy MDS shard mid-schedule (driven by
	// the injector's call counter) and recovers it later. While the
	// shard is down, foreground reads that reach it fail with ErrClosed
	// (tolerated, state marked unknown), and of a commit wave only the
	// ops that shard owns fail — each with ErrClosed, each parked and
	// resubmitted until the shard is back — while the other shards'
	// share of the same wave commits; after recovery the schedule must
	// still converge and pass the audit gate. Requires Shards > 1.
	KillShard bool
	// AtRiskBound is the region's (0: unbounded): every client's ack waits
	// on its node's in-flight table, parked ops and stalled waves included.
	AtRiskBound int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.Ops <= 0 {
		c.Ops = 100
	}
	// 0 means "default"; negative means "injection disabled".
	if c.FaultRate == 0 {
		c.FaultRate = 0.15
	} else if c.FaultRate < 0 {
		c.FaultRate = 0
	}
	if c.MaxFaultsPerPath <= 0 {
		c.MaxFaultsPerPath = 2
	}
	if c.StallEveryN <= 0 {
		c.StallEveryN = 13
	}
	if c.Rmdir && c.DoomedDirs <= 0 {
		c.DoomedDirs = 2
	}
	return c
}

// Result summarizes one schedule.
type Result struct {
	ClientOps    int // operations attempted across all clients
	Renames      int // exclusive-zone renames that succeeded
	Injected     int // backend failures injected
	Stalls       int // backend stalls injected
	CacheEntries int // cache entries resident after the final drain
	Stats        core.RegionStats
	// StageSummary is the run's pipeline-stage latency summary plus the
	// slowest kept spans. Filled only when the schedule violated — it is
	// the first thing to read when triaging a failing seed.
	StageSummary string
	// Audit is the post-drain divergence-audit report: every committed
	// cache entry compared against the DFS through the production read
	// paths. On a drained region anything but 100% match is a violation,
	// which makes the auditor a second, independent convergence oracle
	// (it would catch a verifyConverged bug as readily as a core one).
	Audit audit.Report
	// Flight is the flight-recorder dump (JSON) cut when the schedule
	// violated: recent cross-node critical paths, the spans still in
	// flight, counters and gauges at the moment of failure. Also written to
	// $CHAOS_FLIGHT_DIR when set (CI uploads those as artifacts). Empty
	// on passing schedules.
	Flight []byte
}

// injector decides, per backend mutation, whether to fail or stall it.
// It is shared by every node's commit process, so the per-path fault cap
// holds globally.
type injector struct {
	mu         sync.Mutex
	rng        *rand.Rand
	rate       float64
	maxPerPath int
	stallEvery int
	perPath    map[string]int
	calls      int
	injected   int
	stalls     int

	// Shard kill/recover plan (KillShard schedules): the call counter
	// crossing killAt downs the victim shard, crossing recoverAt brings
	// it back — commit retries to the dead shard keep the counter
	// moving, so recovery always lands inside the drain budget.
	killAt, recoverAt     int
	killOnce, recoverOnce sync.Once
	killFn, recoverFn     func()
}

func newInjector(cfg Config) *injector {
	return &injector{
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		rate:       cfg.FaultRate,
		maxPerPath: cfg.MaxFaultsPerPath,
		stallEvery: cfg.StallEveryN,
		perPath:    make(map[string]int),
	}
}

// fail counts one backend mutation of path and says whether to fail it;
// an exempt one is counted, so that it moves the kill plan on, and never
// failed.
func (in *injector) fail(path string, exempt bool) bool {
	in.mu.Lock()
	in.calls++
	c := in.calls
	stall := in.calls%in.stallEvery == 0
	inject := !exempt && in.perPath[path] < in.maxPerPath && in.rng.Float64() < in.rate
	if inject {
		in.perPath[path]++
		in.injected++
	}
	if stall {
		in.stalls++
	}
	in.mu.Unlock()
	if in.killFn != nil && c >= in.killAt {
		in.killOnce.Do(in.killFn)
	}
	if in.recoverFn != nil && c >= in.recoverAt {
		in.recoverOnce.Do(in.recoverFn)
	}
	if stall {
		time.Sleep(100 * time.Microsecond) // commit-queue stall
	}
	return inject
}

// forceRecover ends the kill window deterministically: no further kill
// can fire, and the victim shard is recovered if it is still down. Run
// calls this after the workload, before the drain — the drain and the
// convergence oracles must see the full pool.
func (in *injector) forceRecover() {
	if in.recoverFn == nil {
		return
	}
	in.killOnce.Do(func() {})
	in.recoverOnce.Do(in.recoverFn)
}

func (in *injector) counts() (injected, stalls int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected, in.stalls
}

// flakyBackend wraps the DFS client handed to commit processes. A commit
// mutates DFS metadata through ApplyBatch and nothing else, so that one
// method is the whole injected surface, and the only method declared
// here: everything else core calls is in core.Backend, so embedding the
// interface promotes it from the wrapped client — the bulk miss-load's
// StatBatch, the rmdir/rename InvalidateSubtree fan-out and the span tag
// included — and every schedule runs production's read paths. (The
// client side's synchronous one-op batches meet the injector too: on the
// schedules that cross the inline threshold, straddleThreshold, the
// large-file transition's own create does, and takes whatever it is
// told as advisory.) It injects only ErrNotExist, which every
// op kind treats as resubmittable, so injected faults delay convergence
// but never forfeit it — an inline setstat included, whose metadata
// rides the wave's batch like any op's. The data path (WriteBatch) is
// left alone: the commit module treats a committed create's failed
// write-back as a drop, which would be indistinguishable from the
// data-loss bugs this harness hunts.
type flakyBackend struct {
	core.Backend
	inj *injector
	// lose, when armed, makes exactly one creation lie "committed"
	// without reaching the DFS — the Config.LoseOneCommit self-test.
	lose *atomic.Bool
}

// ApplyBatch injects per op and forwards the rest of the batch. Without
// this override the embedded interface value would promote the wrapped
// client's ApplyBatch and commits would silently bypass injection.
// Net-absence removes (IfExists) are exempt like the data path: the commit
// module reads their ErrNotExist as success, so an injected failure —
// meaning the remove did NOT run — would be mistaken for a committed
// absence while a stale object still sits on the DFS. They still count
// as calls: when the one op left on a dead shard is such a remove, its
// retries are what closes the kill window.
func (f *flakyBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	errs := make([]error, len(ops))
	fwd := make([]fsapi.BatchOp, 0, len(ops))
	idx := make([]int, 0, len(ops))
	for i, op := range ops {
		creation := op.Kind == fsapi.BatchCreate || op.Kind == fsapi.BatchMkdir
		if creation && f.lose.CompareAndSwap(true, false) {
			continue // lie: committed nothing (LoseOneCommit self-test)
		}
		exempt := op.Kind == fsapi.BatchRemove && op.IfExists
		if f.inj.fail(op.Path, exempt) {
			errs[i] = fsapi.ErrNotExist
			continue
		}
		fwd = append(fwd, op)
		idx = append(idx, i)
	}
	if len(fwd) == 0 {
		return errs, at, nil
	}
	ferrs, done, err := f.Backend.ApplyBatch(at, fwd)
	if err != nil {
		return nil, done, err
	}
	for j, i := range idx {
		errs[i] = ferrs[j]
		ops[i] = fwd[j] // what the DFS filled in: the inodes
	}
	return errs, done, nil
}

// harness is the shared state of one schedule.
type harness struct {
	cfg     Config
	region  *core.Region
	cluster *dfs.Cluster
	oracle  core.Backend // root DFS client for ground-truth reads

	hotMu sync.Mutex
	hot   map[string]bool // hot-zone paths with at least one successful create

	renames atomic.Int64 // exclusive-zone renames that succeeded

	doomedMu   sync.Mutex
	doomedGone map[int]bool // doomed dirs whose rmdir succeeded

	violMu sync.Mutex
	viol   []error
}

func (h *harness) violate(format string, args ...any) {
	h.violMu.Lock()
	defer h.violMu.Unlock()
	if len(h.viol) < 32 {
		h.viol = append(h.viol, fmt.Errorf(format, args...))
	}
}

// worker is one client goroutine. Everything it mutates exclusively
// (its /w/shared files, its hub and doomed children) is modeled in
// `model`/`gone`; those maps are the oracle the final check compares
// cache and DFS against.
type worker struct {
	h       *harness
	id      int
	cl      *core.Client
	rng     *rand.Rand
	at      vclock.Time
	model   map[string][]byte // exclusive path -> expected content
	gone    map[string]bool   // exclusive paths removed and not re-created
	unknown map[string]bool   // paths whose state a dead-shard error left ambiguous
	hubSeq  int
	doomSeq int
}

const (
	filesPerClient = 6
	hotFiles       = 8
	hubDirs        = 4
	smallWriteMax  = 24 // under the default inline threshold; see straddleThreshold
)

// straddleThreshold is the inline threshold of one schedule in four, low
// enough that the exclusive zone's writes (1 to smallWriteMax bytes at
// offset 0, 8 or 16) fall on both sides of it: files cross to large
// mid-schedule, and the oracle checks their content and size like any
// other's. The rest run at the region default, where no write crosses.
// Which seeds is a function of the seed that meets every residue of the
// other dimensions configFor cycles (eviction pressure, rmdir, batch
// width) — the threshold is not one of Config's knobs.
func straddleThreshold(seed int64) int {
	if seed%4 == (seed/4)%4 {
		return 12
	}
	return 0
}

func (w *worker) exclusivePath(j int) string {
	return fmt.Sprintf("/w/shared/c%d-f%d", w.id, j)
}

// closedAmbiguous handles a mutation failing because an MDS shard was
// down (KillShard schedules only): whether the op took effect before the
// error is unknowable, so the path leaves the model entirely — the
// convergence oracle skips it in both directions.
func (w *worker) closedAmbiguous(p string, err error) bool {
	if !w.h.cfg.KillShard || !errors.Is(err, fsapi.ErrClosed) {
		return false
	}
	w.unknown[p] = true
	delete(w.model, p)
	delete(w.gone, p)
	return true
}

// shardDown reports a read failing only because its shard was down — a
// tolerated outcome on KillShard schedules, asserting nothing.
func (w *worker) shardDown(err error) bool {
	return w.h.cfg.KillShard && errors.Is(err, fsapi.ErrClosed)
}

// tolerable reports whether err is nil or one of the accepted sentinels.
func tolerable(err error, accept ...error) bool {
	if err == nil {
		return true
	}
	for _, a := range accept {
		if errors.Is(err, a) {
			return true
		}
	}
	return false
}

func (w *worker) run() {
	for i := 0; i < w.h.cfg.Ops; i++ {
		roll := w.rng.Intn(100)
		switch {
		case roll < 50:
			w.exclusiveOp()
		case roll < 65:
			w.hotOp()
		case roll < 80:
			w.hubOp()
		case roll < 90:
			w.peekOp()
		default:
			if w.h.cfg.Rmdir {
				w.doomedOp(i)
			} else {
				w.exclusiveOp()
			}
		}
	}
}

// exclusiveOp mutates one of this client's private files and keeps the
// model in lockstep. The model's write replicates spliceInline exactly:
// grow zero-padded to off+len(data), preserve any old tail beyond it.
func (w *worker) exclusiveOp() {
	p := w.exclusivePath(w.rng.Intn(filesPerClient))
	if w.unknown[p] {
		return // a dead-shard error left this path's state ambiguous
	}
	content, exists := w.model[p]
	if !exists {
		at, err := w.cl.Create(w.at, p, 0o644)
		w.at = at
		if w.closedAmbiguous(p, err) {
			return
		}
		if !tolerable(err, fsapi.ErrOutOfSpace) {
			w.h.violate("client %d: create %s: %v", w.id, p, err)
			return
		}
		if err == nil {
			w.model[p] = []byte{}
			delete(w.gone, p)
		}
		return
	}
	switch k := w.rng.Intn(100); {
	case k < 60: // write
		off := int64(w.rng.Intn(3) * 8)
		data := make([]byte, 1+w.rng.Intn(smallWriteMax))
		for b := range data {
			data[b] = byte('a' + w.rng.Intn(26))
		}
		at, err := w.cl.WriteAt(w.at, p, off, data)
		w.at = at
		if w.closedAmbiguous(p, err) {
			return
		}
		if !tolerable(err, fsapi.ErrOutOfSpace) {
			w.h.violate("client %d: write %s: %v", w.id, p, err)
			return
		}
		if err != nil {
			return
		}
		w.model[p] = modelSplice(content, off, data)
		if k < 10 {
			// One write in six is fsynced.
			at, err = w.cl.Fsync(w.at, p)
			w.at = at
			if err != nil && !w.closedAmbiguous(p, err) {
				w.h.violate("client %d: fsync %s: %v", w.id, p, err)
			}
		}
	case k < 75: // remove
		at, err := w.cl.Remove(w.at, p)
		w.at = at
		if w.closedAmbiguous(p, err) {
			return
		}
		if err != nil {
			w.h.violate("client %d: rm %s: %v", w.id, p, err)
			return
		}
		delete(w.model, p)
		w.gone[p] = true
	case k < 85: // rename
		w.renameExclusive(p, content)
	default: // mid-run oracle read
		w.verifyExclusive(p, content)
	}
}

// renameExclusive moves one of this client's files to one of its unused
// exclusive names, if it has one. The rename's barrier is scoped to
// /w/shared, so it races the other clients' async ops under their own
// names there, and the model follows the move: the content goes to the
// new name and the old one is gone.
func (w *worker) renameExclusive(p string, content []byte) {
	var free []string
	for j := 0; j < filesPerClient; j++ {
		q := w.exclusivePath(j)
		if _, used := w.model[q]; !used && !w.unknown[q] {
			free = append(free, q)
		}
	}
	if len(free) == 0 {
		return
	}
	q := free[w.rng.Intn(len(free))]
	at, err := w.cl.Rename(w.at, p, q)
	w.at = at
	if w.closedAmbiguous(p, err) {
		w.closedAmbiguous(q, err)
		return
	}
	if err != nil {
		w.h.violate("client %d: rename %s -> %s: %v", w.id, p, q, err)
		return
	}
	delete(w.model, p)
	w.gone[p] = true
	w.model[q] = content
	delete(w.gone, q)
	w.h.renames.Add(1)
}

// modelSplice mirrors the region's inline write semantics.
func modelSplice(buf []byte, off int64, data []byte) []byte {
	need := int(off) + len(data)
	n := len(buf)
	if need > n {
		n = need
	}
	out := make([]byte, n)
	copy(out, buf)
	copy(out[off:], data)
	return out
}

// verifyExclusive asserts the region's view of one exclusive path
// matches the model right now (strong consistency inside the region).
func (w *worker) verifyExclusive(p string, content []byte) {
	st, at, err := w.cl.Stat(w.at, p)
	w.at = at
	if err != nil {
		if w.shardDown(err) {
			return
		}
		w.h.violate("client %d: stat %s: %v (model has %d bytes)", w.id, p, err, len(content))
		return
	}
	if st.Size != int64(len(content)) {
		w.h.violate("client %d: %s size = %d, model %d", w.id, p, st.Size, len(content))
		return
	}
	data, at, err := w.cl.ReadAt(w.at, p, 0, len(content)+16)
	w.at = at
	if err != nil {
		if w.shardDown(err) {
			return
		}
		w.h.violate("client %d: read %s: %v", w.id, p, err)
		return
	}
	if !bytes.Equal(data, content) {
		w.h.violate("client %d: %s content = %q, model %q", w.id, p, data, content)
	}
}

// hotOp races a create on a path every client contends for. Exactly one
// create wins (the rest see ErrExist); the winner's entry must commit.
func (w *worker) hotOp() {
	p := fmt.Sprintf("/w/hot/f%d", w.rng.Intn(hotFiles))
	at, err := w.cl.Create(w.at, p, 0o644)
	w.at = at
	if w.shardDown(err) {
		return // hot[p] only tracks definite wins; a lost win is a weaker check, not a lie
	}
	if !tolerable(err, fsapi.ErrExist, fsapi.ErrOutOfSpace) {
		w.h.violate("client %d: hot create %s: %v", w.id, p, err)
		return
	}
	if err == nil {
		w.h.hotMu.Lock()
		w.h.hot[p] = true
		w.h.hotMu.Unlock()
	}
}

// hubOp creates a shared directory (idempotently) and an exclusive child
// under it — the cross-queue parent/child dependency that exercises
// commit resubmission.
func (w *worker) hubOp() {
	dir := fmt.Sprintf("/w/hub%d", w.rng.Intn(hubDirs))
	at, err := w.cl.Mkdir(w.at, dir, 0o755)
	w.at = at
	if w.shardDown(err) {
		return
	}
	if !tolerable(err, fsapi.ErrExist, fsapi.ErrOutOfSpace) {
		w.h.violate("client %d: mkdir %s: %v", w.id, dir, err)
		return
	}
	if err != nil {
		return // lost the mkdir race or no space: the dir entry is live anyway or we skip
	}
	child := fmt.Sprintf("%s/c%d-h%d", dir, w.id, w.hubSeq)
	w.hubSeq++
	at, err = w.cl.Create(w.at, child, 0o644)
	w.at = at
	if w.closedAmbiguous(child, err) {
		return
	}
	if !tolerable(err, fsapi.ErrOutOfSpace) {
		w.h.violate("client %d: hub create %s: %v", w.id, child, err)
		return
	}
	if err == nil {
		w.model[child] = []byte{}
	}
}

// peekOp reads someone else's paths (no assertion — their owner is
// mid-flight) or readdirs the shared zone, asserting this client's own
// slice of the listing matches its model: the readdir barrier drains
// every queue holding an op under /w/shared, so this client's earlier
// ops must all be visible.
func (w *worker) peekOp() {
	if w.rng.Intn(4) == 0 {
		w.verifyReaddir()
		return
	}
	other := w.rng.Intn(w.h.cfg.Clients)
	p := fmt.Sprintf("/w/shared/c%d-f%d", other, w.rng.Intn(filesPerClient))
	st, at, err := w.cl.Stat(w.at, p)
	w.at = at
	if w.shardDown(err) {
		return
	}
	if !tolerable(err, fsapi.ErrNotExist) {
		w.h.violate("client %d: peek stat %s: %v", w.id, p, err)
		return
	}
	if err == nil && !st.IsDir() {
		_, at, rerr := w.cl.ReadAt(w.at, p, 0, 64)
		w.at = at
		if !tolerable(rerr, fsapi.ErrNotExist) && !w.shardDown(rerr) {
			w.h.violate("client %d: peek read %s: %v", w.id, p, rerr)
		}
	}
}

func (w *worker) verifyReaddir() {
	ents, at, err := w.cl.Readdir(w.at, "/w/shared")
	w.at = at
	if err != nil {
		if w.shardDown(err) {
			return
		}
		w.h.violate("client %d: readdir /w/shared: %v", w.id, err)
		return
	}
	prefix := fmt.Sprintf("c%d-", w.id)
	listed := make(map[string]bool)
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name, prefix) {
			listed[ent.Name] = true
		}
	}
	for p := range w.model {
		if !strings.HasPrefix(p, "/w/shared/") {
			continue
		}
		name := strings.TrimPrefix(p, "/w/shared/")
		if !listed[name] {
			w.h.violate("client %d: readdir missing own file %s", w.id, name)
		}
		delete(listed, name)
	}
	for name := range listed {
		if w.unknown["/w/shared/"+name] {
			continue // dead-shard ambiguity: the file may legitimately exist
		}
		w.h.violate("client %d: readdir lists removed/unknown own file %s", w.id, name)
	}
}

// doomedOp races creations under a directory fated for rmdir. The
// designated client fires the rmdir once past the schedule's midpoint;
// everyone else keeps creating children, tolerating the dir's demise.
func (w *worker) doomedOp(opIndex int) {
	k := w.rng.Intn(w.h.cfg.DoomedDirs)
	dir := fmt.Sprintf("/w/doomed%d", k)
	if w.id == k%w.h.cfg.Clients && opIndex > w.h.cfg.Ops/2 {
		w.h.doomedMu.Lock()
		done := w.h.doomedGone[k]
		w.h.doomedMu.Unlock()
		if !done {
			at, err := w.cl.Rmdir(w.at, dir)
			w.at = at
			if w.shardDown(err) {
				return // shard down: the rmdir retries on a later roll
			}
			if err != nil {
				w.h.violate("client %d: rmdir %s: %v", w.id, dir, err)
				return
			}
			w.h.doomedMu.Lock()
			w.h.doomedGone[k] = true
			w.h.doomedMu.Unlock()
			return
		}
	}
	child := fmt.Sprintf("%s/c%d-d%d", dir, w.id, w.doomSeq)
	w.doomSeq++
	// The create may be accepted and later discarded, or rejected with
	// ErrNotExist once the dir is gone — both are designed outcomes, so
	// the child never enters the model.
	at, err := w.cl.Create(w.at, child, 0o644)
	w.at = at
	if !tolerable(err, fsapi.ErrNotExist, fsapi.ErrOutOfSpace) && !w.shardDown(err) {
		w.h.violate("client %d: doomed create %s: %v", w.id, child, err)
	}
}

// Run executes one chaos schedule and verifies convergence. The returned
// error joins every violation found (nil = the schedule converged).
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var lose atomic.Bool
	lose.Store(cfg.LoseOneCommit)
	// Every schedule runs instrumented: the per-stage latency summary is
	// cheap (wall-clock hooks only, no virtual-time impact) and turns a
	// failing seed report into a per-stage breakdown instead of a bare
	// violation list.
	o := obs.New()
	// Sample every span: a failing seed's flight dump must contain the
	// violating op's cross-node timeline, not a 1/64 lottery.
	o.SetSampleN(1)
	if dir := os.Getenv("CHAOS_FLIGHT_DIR"); dir != "" {
		// Best-effort, like the dump writes themselves: CI points this
		// at a workspace path that may not exist yet.
		_ = os.MkdirAll(dir, 0o755)
		o.SetFlightDir(dir)
	}
	sim := pacon.NewSimulation(pacon.SimulationConfig{
		ClientNodes: cfg.Nodes,
		DataServers: 2,
		AdminCred:   rootCred,
		Obs:         o,
		ShardCount:  cfg.Shards,
		SpreadRoots: []string{"/w"},
	})
	defer sim.Close()
	cluster := sim.DFS()
	admin := sim.AdminClient()
	for _, dir := range []string{"/w", "/w/shared", "/w/hot"} {
		if _, err := admin.Mkdir(0, dir, 0o777); err != nil {
			return Result{}, err
		}
	}
	for k := 0; k < cfg.DoomedDirs; k++ {
		if _, err := admin.Mkdir(0, fmt.Sprintf("/w/doomed%d", k), 0o777); err != nil {
			return Result{}, err
		}
	}

	inj := newInjector(cfg)
	if cfg.KillShard && cfg.Shards > 1 {
		// Down the shard owning the busiest zone (/w/shared) mid-run,
		// recover it once the counter has moved on. Retries to the dead
		// shard advance the counter, so the window always closes.
		victim := cluster.Shards.Owner("/w/shared")
		inj.killAt, inj.recoverAt = 40, 120
		inj.killFn = func() { cluster.KillShard(victim) }
		inj.recoverFn = func() { cluster.RecoverShard(victim) }
	}
	nodes := sim.Nodes()
	// A dead-shard window makes every op targeting it burn resubmissions;
	// widen the retry budget so the window cannot exhaust it.
	retryLimit := 0
	if cfg.KillShard {
		retryLimit = 512
	}
	deps := sim.Deps(appCred)
	newBackend := deps.NewBackend
	deps.NewBackend = func(node string) core.Backend {
		return &flakyBackend{Backend: newBackend(node), inj: inj, lose: &lose}
	}
	region, err := pacon.NewRegion(core.RegionConfig{
		Name:               "chaos",
		Workspace:          "/w",
		Nodes:              nodes,
		Cred:               appCred,
		CacheCapacityBytes: cfg.CacheCapacityBytes,
		CommitRetryLimit:   retryLimit,
		CommitBatchSize:    cfg.CommitBatchSize,
		SmallFileThreshold: straddleThreshold(cfg.Seed),
		AtRiskBound:        cfg.AtRiskBound,
		Model:              sim.Model(),
	}, deps)
	if err != nil {
		return Result{}, err
	}
	defer region.Close()

	h := &harness{
		cfg:        cfg,
		region:     region,
		cluster:    cluster,
		oracle:     admin,
		hot:        make(map[string]bool),
		doomedGone: make(map[int]bool),
	}

	workers := make([]*worker, cfg.Clients)
	var wg sync.WaitGroup
	for i := range workers {
		cl, cerr := region.NewClient(nodes[i%cfg.Nodes])
		if cerr != nil {
			return Result{}, cerr
		}
		workers[i] = &worker{
			h:       h,
			id:      i,
			cl:      cl,
			rng:     rand.New(rand.NewSource(cfg.Seed*1009 + int64(i))),
			model:   make(map[string][]byte),
			gone:    make(map[string]bool),
			unknown: make(map[string]bool),
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run()
		}(workers[i])
	}
	wg.Wait()
	inj.forceRecover()

	// Quiesce: every queued op reaches the DFS (or exhausts its budget).
	var maxAt vclock.Time
	for _, w := range workers {
		maxAt = vclock.Max(maxAt, w.at)
	}
	drainAt, err := region.Drain(maxAt)
	if err != nil {
		return Result{}, err
	}
	h.verifyConverged(workers, drainAt)

	// Independent oracle: audit every committed cache entry against the
	// DFS through the production read paths. The region is quiesced, so
	// stale-pending is as much a violation as divergent — nothing may be
	// in flight after a drain.
	var auditRep audit.Report
	if auditCl, aerr := region.NewClient(nodes[0]); aerr != nil {
		h.violate("audit client: %v", aerr)
	} else if rep, _, aerr := audit.Run(auditCl, drainAt, audit.Config{}); aerr != nil {
		h.violate("audit run: %v", aerr)
	} else {
		auditRep = rep
		if rep.Divergent > 0 || rep.StalePending > 0 {
			h.violate("post-drain audit not clean: %s", rep)
		}
	}
	// And the data path: every unlinked file's bytes were dropped.
	if chunks := audit.Chunks(h.cluster); chunks.OrphanChunks > 0 {
		auditRep.OrphanChunks = chunks.OrphanChunks
		h.violate("post-drain chunk audit not clean: %s", chunks)
	}

	injected, stalls := inj.counts()
	res := Result{
		ClientOps: cfg.Clients * cfg.Ops,
		Renames:   int(h.renames.Load()),
		Injected:  injected,
		Stalls:    stalls,
		Stats:     region.Stats(),
		Audit:     auditRep,
	}
	if dump, derr := region.DumpCache(); derr == nil {
		res.CacheEntries = len(dump)
	}
	if len(h.viol) > 0 {
		var sb strings.Builder
		sb.WriteString(o.Summary())
		if slow := o.SlowSpans(5); len(slow) > 0 {
			sb.WriteString("\nslowest kept spans:\n")
			for _, sp := range slow {
				sb.WriteString("  " + sp.Line() + "\n")
			}
		}
		res.StageSummary = sb.String()
		// The audit's own divergence trigger may have cut a dump moments
		// ago (the recorder rate-limits); fall back to it rather than
		// returning a failing seed with no black box.
		if res.Flight = o.TriggerFlight("chaos_violation"); res.Flight == nil {
			res.Flight = o.LastFlight()
		}
	}
	return res, errors.Join(h.viol...)
}

// verifyConverged runs the post-drain oracle: cache image, DFS state and
// the workers' models must agree.
func (h *harness) verifyConverged(workers []*worker, at vclock.Time) {
	// Ground truth comes from the cluster's oracle helpers, which route
	// each path to its authoritative tree (shard-aware in sharded mode).

	// 1. Cache image: after a drain nothing may be dirty or marked
	// removed, and every resident entry must be backed by the DFS.
	dump, err := h.region.DumpCache()
	if err != nil {
		h.violate("dump cache: %v", err)
		return
	}
	for _, ent := range dump {
		if ent.Dirty {
			h.violate("cache entry %s still dirty after drain", ent.Path)
		}
		if ent.Removed {
			h.violate("cache entry %s still marked removed after drain", ent.Path)
		}
		st, lerr := h.cluster.OracleLookup(ent.Path)
		if lerr != nil {
			h.violate("cache entry %s has no DFS backing (dirty=%v removed=%v seq=%d size=%d): %v",
				ent.Path, ent.Dirty, ent.Removed, ent.Seq, ent.Stat.Size, lerr)
			continue
		}
		if st.IsDir() != ent.Stat.IsDir() {
			h.violate("cache entry %s type mismatch with DFS", ent.Path)
			continue
		}
		if !ent.Stat.IsDir() && !ent.Large && ent.Stat.Size != st.Size {
			h.violate("cache entry %s size %d, DFS %d", ent.Path, ent.Stat.Size, st.Size)
			continue
		}
		if !ent.Stat.IsDir() && !ent.Large && int64(len(ent.Stat.Inline)) == ent.Stat.Size && ent.Stat.Size > 0 {
			data, _, rerr := h.oracle.ReadAt(at, ent.Path, 0, int(ent.Stat.Size))
			if rerr != nil || !bytes.Equal(data, ent.Stat.Inline) {
				h.violate("cache entry %s inline %q, DFS %q (%v)", ent.Path, ent.Stat.Inline, data, rerr)
			}
		}
	}

	// 2. Exclusive paths: region view and DFS must match each worker's
	// model exactly, in both directions (present and absent).
	for _, w := range workers {
		paths := make([]string, 0, len(w.model))
		for p := range w.model {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			w.verifyExclusive(p, w.model[p])
			st, lerr := h.cluster.OracleLookup(p)
			if lerr != nil {
				h.violate("model file %s missing on DFS: %v", p, lerr)
				continue
			}
			if st.Size != int64(len(w.model[p])) {
				h.violate("DFS %s size %d, model %d", p, st.Size, len(w.model[p]))
				continue
			}
			if len(w.model[p]) > 0 {
				data, _, rerr := h.oracle.ReadAt(at, p, 0, len(w.model[p]))
				if rerr != nil || !bytes.Equal(data, w.model[p]) {
					h.violate("DFS %s content %q, model %q (%v)", p, data, w.model[p], rerr)
				}
			}
		}
		for p := range w.gone {
			if h.cluster.OracleExists(p) {
				h.violate("removed file %s survived on DFS", p)
			}
			if _, _, serr := w.cl.Stat(at, p); !errors.Is(serr, fsapi.ErrNotExist) {
				h.violate("removed file %s still visible in region: %v", p, serr)
			}
		}
	}

	// 3. Hot zone: every path with a winning create must have committed.
	for p := range h.hot {
		if !h.cluster.OracleExists(p) {
			h.violate("hot create %s never committed", p)
		}
	}

	// 4. Doomed dirs: a committed rmdir leaves nothing — not on the DFS,
	// not in the cache.
	for k := range h.doomedGone {
		dir := fmt.Sprintf("/w/doomed%d", k)
		if h.cluster.OracleExists(dir) {
			h.violate("rmdir'd dir %s survived on DFS", dir)
		}
		for _, ent := range dump {
			if strings.HasPrefix(ent.Path, dir+"/") || ent.Path == dir {
				h.violate("rmdir'd subtree entry %s still cached", ent.Path)
			}
		}
	}

	// 5. Accounting: queues empty; without an rmdir zone nothing may be
	// dropped (every failure is resubmittable and under the fault cap).
	if d := h.region.QueueDepth(); d != 0 {
		h.violate("queue depth %d after drain", d)
	}
	if !h.cfg.Rmdir {
		if st := h.region.Stats(); st.Dropped != 0 {
			h.violate("%d ops dropped in a schedule without rmdir: %+v", st.Dropped, st)
		}
	}
}
