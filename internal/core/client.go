package core

import (
	"errors"
	"fmt"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/namespace"
	"pacon/internal/obs"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// Client is one application process's handle on a consistent region. It
// implements the paper's Table I: create/mkdir/rm execute on the
// distributed cache and commit asynchronously; getattr reads the cache
// (loading from the DFS on miss); rmdir and readdir are synchronous
// barrier operations; everything outside the workspace is redirected to
// the DFS unchanged.
type Client struct {
	region *Region
	// node is the region node the client runs on: its ops enter that
	// node's in-flight table and queue, and every public entry point
	// begins and ends through its telemetry handle.
	node    *node
	cache   *memcache.Client
	caller  *rpc.Caller
	backend Backend

	// parentMemo caches positive parent-existence checks per barrier
	// epoch: monotone until a dependent op can remove directories, at
	// which point the epoch changes and the memo resets. memoEpoch is
	// the epoch of the newest entry; when it advances, the stale
	// entries are swept so the memo stays bounded by the directories
	// touched in one epoch rather than growing for the client's
	// lifetime.
	parentMemo map[string]uint64
	memoEpoch  uint64

	// remoteCaches lazily built per merged peer ring.
	remoteCaches map[string]*memcache.Client

	// curSpan/curSampled/curStart are the active client call's telemetry
	// state, set by begin at the public entry points (curSpan != 0 means
	// a call is in flight). A Client already serves one call at a time
	// (parentMemo), so plain fields suffice; curQueued records that the
	// span was handed to the commit queue, which then owns its
	// finalization.
	curSpan    uint64
	curSampled bool
	curQueued  bool
	curStart   int64
}

// NewClient builds a client bound to one of the region's nodes.
func (r *Region) NewClient(node string) (*Client, error) {
	n := r.byName[node]
	if n == nil {
		return nil, fmt.Errorf("core: node %q is not part of region %q", node, r.cfg.Name)
	}
	caller := rpc.NewCaller(r.deps.Bus, r.cfg.Model, node)
	return &Client{
		region:       r,
		node:         n,
		cache:        memcache.NewClient(caller, r.ring),
		caller:       caller,
		backend:      r.newBackend(node),
		parentMemo:   make(map[string]uint64),
		remoteCaches: make(map[string]*memcache.Client),
	}, nil
}

// begin opens a client call's telemetry at a public entry point; every
// entry point is bracketed `defer c.end(c.begin(op, paths...))`. The
// call gets a span, its paths feed the hot-path sketches, and end
// records its synchronous wall latency as client_op — for async ops
// exactly the latency Pacon hides from the application. A sampled call
// tags the client's cache and backend callers with the span's trace
// context, so the servers they talk to record their side into the same
// span. It reports whether this is the outermost call: one entry point
// calling another (Rmdir and ReadAt stat their target) keeps the outer
// call's span and records nothing of its own.
func (c *Client) begin(op string, paths ...string) (outer bool) {
	if c.node.tel == nil || c.curSpan != 0 {
		return false
	}
	c.curSpan, c.curSampled, c.curStart = c.node.tel.OpBegin(op, paths...)
	c.curQueued = false
	if c.curSampled {
		c.caller.SetTrace(c.curSpan)
		c.backend.SetTrace(c.curSpan)
	}
	return true
}

// end closes the call begin opened. A span that entered the commit
// queue finalizes at its commit terminal; any other finalizes here.
func (c *Client) end(outer bool) {
	if !outer {
		return
	}
	if c.curSampled {
		c.caller.ClearTrace()
		c.backend.ClearTrace()
	}
	c.node.tel.OpEnd(c.curSpan, c.curSampled, c.curQueued, c.curStart)
	c.curSpan, c.curSampled = 0, false
}

// barrierReturned marks a synchronous op (readdir/rmdir/rename) coming
// back from its barrier wait, on the active sampled span.
func (c *Client) barrierReturned(op, path string) {
	if c.curSampled {
		c.node.tel.Event(c.curSpan, true, obs.StageBarrier, op, path, "")
	}
}

// Pace attaches a virtual-time pacer to the client's cache RPCs and its
// DFS RPCs.
func (c *Client) Pace(p *vclock.Pacer, id int) {
	c.caller.Pace(p, id)
	c.backend.Pace(p, id)
}

// Region returns the client's region.
func (c *Client) Region() *Region { return c.region }

// inWorkspace reports whether p belongs to this client's region.
func (c *Client) inWorkspace(p string) bool {
	return namespace.IsUnder(p, c.region.cfg.Workspace)
}

// overhead charges the per-op client-side cost.
func (c *Client) overhead(at vclock.Time) vclock.Time {
	return at.Add(c.region.cfg.Model.ClientOverhead)
}

// pushOp enqueues the commit operation a stored transition owes — what
// next said to enqueue for the value it stored — on this node's queue,
// charging the publish cost (§III.D.1). The op takes over the in-flight
// reference mutate took for it at wall, before the store — a scoped barrier
// or a crossing asking the table since has seen the op coming — and from
// here its terminal gives it back. It is pushed in the turn it took, and
// acked by the one ack rule (RegionConfig.AtRiskBound, awaitAck).
func (c *Client) pushOp(at vclock.Time, p string, out *outcome, wall int64) (vclock.Time, error) {
	kind := out.kind
	// The op carries the span begin opened at the client entry point (so
	// the cache RPCs issued before the push already belong to it) and
	// its node; they follow it through dequeue, coalescing, parking and
	// apply.
	op := Op{Kind: kind, Path: p, Time: at, Seq: out.val.seq, Node: c.node.name, AfterRm: out.afterRm,
		node: c.node, Span: c.curSpan, Sampled: c.curSampled, EnqWall: wall}
	if kind != OpRemove {
		op.Stat = out.val.stat // a remove commits a path, not a stat
	}
	// Before the push: the commit process could otherwise record the op's
	// dequeue before its enqueue.
	op.trace(obs.StageEnqueue, "")
	gate, err := c.node.inflight.push(c.node.queue, &op)
	if err != nil {
		c.region.opTerminal(op, at, obs.StageDrop, "queue closed")
		return at, err
	}
	c.curQueued = true
	at = at.Add(c.region.cfg.Model.QueuePushCost)
	if gate != 0 {
		return c.awaitAck(at, gate)
	}
	return at, nil
}

// awaitAck parks the ack on its node's bound until it opens at gate, and
// moves the clock to the latest terminal's: virtual time pays for the wait.
// An op parked on the node first may be what the ack waits behind — a
// parked op is retried only when its queue next moves — and the ack moves
// the workspace's parked ops with one barrier, as drainPath does a path's.
func (c *Client) awaitAck(at vclock.Time, gate uint64) (vclock.Time, error) {
	for {
		freed, parked, err := c.node.inflight.below(gate)
		if err != nil || !parked {
			return vclock.Max(at, freed), err
		}
		if at, err = c.region.flush(at, c.region.cfg.Workspace); err != nil {
			return at, err
		}
	}
}

// checkParent verifies the parent directory exists (§III.C): first in
// the distributed cache, then — if uncached — synchronously on the DFS.
// Positive results are memoized per barrier epoch: directory existence
// is monotone between dependent operations.
func (c *Client) checkParent(at vclock.Time, p string) (vclock.Time, error) {
	if c.region.cfg.DisableParentCheck {
		return at, nil
	}
	dir, _ := namespace.Split(p)
	if dir == c.region.cfg.Workspace {
		return at, nil // verified at region init
	}
	epoch := c.region.barrier.Epoch()
	if e, ok := c.parentMemo[dir]; ok && e == epoch {
		return at, nil
	}
	// The parent may exist on the DFS but not in the cache (§III.C): a
	// miss loads it synchronously.
	st, at, err := c.lookup(at, c.cache, true, "parent-check", dir)
	if err != nil {
		return at, err
	}
	if !st.IsDir() {
		return at, fsapi.WrapPath("parent-check", dir, fsapi.ErrNotDir)
	}
	if epoch != c.memoEpoch {
		// The epoch advanced since the last memoization: every older
		// entry is dead weight (the lookup above ignores them) — sweep
		// so the memo cannot grow by one stale entry per directory per
		// barrier epoch.
		for d, e := range c.parentMemo {
			if e != epoch {
				delete(c.parentMemo, d)
			}
		}
		c.memoEpoch = epoch
	}
	c.parentMemo[dir] = epoch
	return at, nil
}

// checkPerm authorizes an operation on p. Normally this is the batch
// permission match — a local lookup, zero RPCs (§III.C). Under the
// HierarchicalPermCheck ablation it instead walks every component from
// the workspace root to p's parent through the distributed cache,
// checking traversal permission per level — the traditional
// layer-by-layer scheme whose cost the paper's design removes.
func (c *Client) checkPerm(at vclock.Time, p string, want fsapi.AccessWant) (vclock.Time, error) {
	r := c.region
	if !r.cfg.HierarchicalPermCheck {
		return at, r.cfg.Perm.Check(r.cfg.Cred, p, want)
	}
	ws := r.cfg.Workspace
	for _, anc := range namespace.Ancestors(p) {
		if !namespace.IsUnder(anc, ws) {
			continue // components above the workspace belong to the DFS
		}
		st, done, err := c.lookup(at, c.cache, true, "traverse", anc)
		at = done
		if err != nil {
			return at, err
		}
		if !st.IsDir() {
			return at, fsapi.WrapPath("traverse", anc, fsapi.ErrNotDir)
		}
		if !st.Mode.Allows(r.cfg.Cred.ClassFor(st.UID, st.GID), fsapi.WantExec) {
			return at, fsapi.WrapPath("traverse", anc, fsapi.ErrPermission)
		}
	}
	return at, r.cfg.Perm.Check(r.cfg.Cred, p, want)
}

// applyOne sends one metadata mutation to the DFS synchronously, as the
// batch of one it is to dfs.Client — redirection outside the workspace,
// the large-file transition and the checkpoint copy all come through here,
// so ApplyBatch is the only mutation a Backend has. A batch-level error is
// the op's error.
func applyOne(b Backend, at vclock.Time, op fsapi.BatchOp) (vclock.Time, error) {
	errs, done, err := b.ApplyBatch(at, []fsapi.BatchOp{op})
	if err == nil {
		err = errs[0]
	}
	return done, err
}

// insert is the shared create/mkdir path: batch permission check, parent
// check, the create row (which replaces a removed marker), async commit.
func (c *Client) insert(at vclock.Time, op, p string, st fsapi.Stat) (vclock.Time, error) {
	r := c.region
	at = c.overhead(at)

	at, err := c.checkPerm(at, p, fsapi.WantWrite)
	if err != nil {
		return at, err
	}
	at, err = c.checkParent(at, p)
	if err != nil {
		return at, err
	}

	_, at, err = c.mutate(at, &event{kind: evCreate, op: op, path: p, seq: r.seq.Add(1), stat: st})
	return at, err
}

// Mkdir creates a directory in the workspace (async commit); outside the
// workspace it is redirected to the DFS.
func (c *Client) Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("mkdir", p))
	if !c.inWorkspace(p) {
		if _, merged := c.region.mergedFor(p); merged {
			return at, fsapi.WrapPath("mkdir", p, fsapi.ErrReadOnly)
		}
		return applyOne(c.backend, at, fsapi.BatchOp{Kind: fsapi.BatchMkdir, Path: p, Stat: fsapi.NewDirStat(c.region.cfg.Cred, mode)})
	}
	return c.insert(at, "mkdir", p, fsapi.NewDirStat(c.region.cfg.Cred, mode))
}

// Create creates an empty file in the workspace (async commit).
func (c *Client) Create(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("create", p))
	if !c.inWorkspace(p) {
		if _, merged := c.region.mergedFor(p); merged {
			return at, fsapi.WrapPath("create", p, fsapi.ErrReadOnly)
		}
		return applyOne(c.backend, at, fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: p, Stat: fsapi.NewFileStat(c.region.cfg.Cred, mode)})
	}
	return c.insert(at, "create", p, fsapi.NewFileStat(c.region.cfg.Cred, mode))
}

// Stat is Table I's getattr: a cache get, which the owning cache server
// answers from the DFS on a miss. Merged workspaces are read through the
// peer's distributed cache.
func (c *Client) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("stat", p))
	at = c.overhead(at)
	if !c.inWorkspace(p) {
		if m, ok := c.region.mergedFor(p); ok {
			return c.statMerged(at, m, p)
		}
		return c.backend.Stat(at, p)
	}
	at, err := c.checkPerm(at, p, fsapi.WantRead)
	if err != nil {
		return fsapi.Stat{}, at, err
	}
	return c.lookup(at, c.cache, true, "stat", p)
}

// remoteCache lazily builds the read-only cache client for a merged
// peer's ring.
func (c *Client) remoteCache(m remoteRegion) *memcache.Client {
	rc, ok := c.remoteCaches[m.workspace]
	if !ok {
		rc = memcache.NewClient(c.caller, m.ring)
		c.remoteCaches[m.workspace] = rc
	}
	return rc
}

// statMerged reads p through a merged peer's cache, read-only (§III.D.4):
// a miss is answered by the DFS and stored nowhere.
func (c *Client) statMerged(at vclock.Time, m remoteRegion, p string) (fsapi.Stat, vclock.Time, error) {
	if err := m.perm.Check(c.region.cfg.Cred, p, fsapi.WantRead); err != nil {
		return fsapi.Stat{}, at, err
	}
	return c.lookup(at, c.remoteCache(m), false, "stat", p)
}

// StatMulti is the batched form of Stat: workspace paths resolve with
// one get_multi per owning cache server, which loads what it does not hold
// for the next reader; merged-peer paths read the peer's cache the same
// way but stay strictly read-only, their misses read from the DFS;
// everything else goes to the DFS per path. Results align with paths —
// per-path failures land in their StatResult, they never fail the batch.
func (c *Client) StatMulti(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	r := c.region
	out := make([]fsapi.StatResult, len(paths))
	// Clean returns a clean path as it is, so the common batch is its own
	// cleaned form; the first path that is not gets the batch copied.
	cleaned, copied := paths, false
	for i, p := range paths {
		if cp := namespace.Clean(p); cp != p {
			if !copied {
				cleaned, copied = append([]string(nil), paths...), true
			}
			cleaned[i] = cp
		}
	}
	defer c.end(c.begin("statmulti", cleaned...))
	at = c.overhead(at)

	// Classify. Workspace paths batch through our own cache; merged
	// workspaces batch through the peer's (grouped per peer); paths
	// outside any region redirect to the DFS one by one. While every
	// path so far is a readable workspace path — the common batch —
	// wsPaths is cleaned itself and results land in out by position; the
	// first path that is not gathers the workspace paths apart, with
	// wsIdx remembering where each one's result goes.
	wsPaths, wsIdx := cleaned, []int(nil)
	gather := func(i int) {
		if wsIdx != nil {
			return
		}
		wsPaths = append([]string(nil), cleaned[:i]...)
		wsIdx = make([]int, i, len(cleaned))
		for j := range wsIdx {
			wsIdx[j] = j
		}
	}
	type mergedGroup struct {
		m     remoteRegion
		idx   []int
		paths []string
	}
	var mgroups []mergedGroup
	for i, p := range cleaned {
		if c.inWorkspace(p) {
			var err error
			if at, err = c.checkPerm(at, p, fsapi.WantRead); err != nil {
				gather(i)
				out[i] = fsapi.StatResult{Err: err}
				continue
			}
			if wsIdx != nil {
				wsIdx = append(wsIdx, i)
				wsPaths = append(wsPaths, p)
			}
			continue
		}
		gather(i)
		if m, ok := r.mergedFor(p); ok {
			if err := m.perm.Check(r.cfg.Cred, p, fsapi.WantRead); err != nil {
				out[i] = fsapi.StatResult{Err: err}
				continue
			}
			gi := -1
			for j := range mgroups {
				if mgroups[j].m.workspace == m.workspace {
					gi = j
					break
				}
			}
			if gi < 0 {
				mgroups = append(mgroups, mergedGroup{m: m})
				gi = len(mgroups) - 1
			}
			mgroups[gi].idx = append(mgroups[gi].idx, i)
			mgroups[gi].paths = append(mgroups[gi].paths, p)
			continue
		}
		st, done, err := c.backend.Stat(at, p)
		at = done
		out[i] = fsapi.StatResult{Stat: st, Err: err}
	}

	at = c.lookupMulti(at, c.cache, true, wsPaths, wsIdx, out)
	for _, g := range mgroups {
		at = c.lookupMulti(at, c.remoteCache(g.m), false, g.paths, g.idx, out)
	}
	return out, at, nil
}

// StatBackend bulk-reads authoritative per-path stats straight from the
// DFS backend, bypassing the distributed cache entirely. The divergence
// auditor uses it as the ground-truth side of a cache↔DFS comparison;
// it is a many-path load's read exported, so the authority read is the
// same code the production miss path trusts. A per-path error (e.g.
// ErrNotExist) lands in that entry's Err.
func (c *Client) StatBackend(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time) {
	clean := make([]string, len(paths))
	for i, p := range paths {
		clean[i] = namespace.Clean(p)
	}
	out := make([]fsapi.StatResult, len(paths))
	at = statPaths(c.backend, at, clean, func(j int, sr fsapi.StatResult) { out[j] = sr })
	return out, at
}

// statPaths is a load's read, fn(j, sr) getting paths[j]'s answer:
// nothing for no path, Backend.Stat for one, one Backend.StatBatch for
// many. A batch-level error, from a backend that could not say more, is
// that error on every path.
func statPaths(b Backend, at vclock.Time, paths []string, fn func(j int, sr fsapi.StatResult)) vclock.Time {
	switch len(paths) {
	case 0:
		return at
	case 1:
		var sr fsapi.StatResult
		sr.Stat, at, sr.Err = b.Stat(at, paths[0])
		fn(0, sr)
		return at
	}
	res, done, err := b.StatBatch(at, paths)
	for j := range paths {
		sr := fsapi.StatResult{Err: err}
		if err == nil {
			sr = res[j]
		}
		fn(j, sr)
	}
	return done
}

// Remove is Table I's rm: mark the cached entry removed (one mutate, which
// the entry's cache server applies), commit asynchronously; the commit
// process deletes the cache entry once the DFS applied it.
func (c *Client) Remove(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("rm", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		if _, merged := r.mergedFor(p); merged {
			return at, fsapi.WrapPath("rm", p, fsapi.ErrReadOnly)
		}
		return applyOne(c.backend, at, fsapi.BatchOp{Kind: fsapi.BatchRemove, Path: p})
	}
	at, err := c.checkPerm(at, p, fsapi.WantWrite)
	if err != nil {
		return at, err
	}
	_, at, err = c.mutate(at, &event{kind: evRemove, op: "rm", path: p, seq: r.seq.Add(1)})
	return at, err
}

// Rmdir is Table I's rmdir: synchronous, barrier-committed, recursive —
// it removes all metadata under the target on both the DFS and the
// distributed cache (§III.D.1).
func (c *Client) Rmdir(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("rmdir", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		if _, merged := r.mergedFor(p); merged {
			return at, fsapi.WrapPath("rmdir", p, fsapi.ErrReadOnly)
		}
		_, done, err := c.backend.RmTree(at, p)
		return done, err
	}
	if p == r.cfg.Workspace {
		return at, fsapi.WrapPath("rmdir", p, fsapi.ErrPermission)
	}
	at, err := c.checkPerm(at, p, fsapi.WantWrite)
	if err != nil {
		return at, err
	}
	// The target must exist (in the cache or on the DFS) and be a
	// directory before we start discarding work under it.
	st, at, err := c.Stat(at, p)
	if err != nil {
		return at, fsapi.WrapPath("rmdir", p, err)
	}
	if !st.IsDir() {
		return at, fsapi.WrapPath("rmdir", p, fsapi.ErrNotDir)
	}

	// Discard concurrent creations under the target for the duration —
	// including the target's own pending mkdir, which then never
	// materializes on the DFS.
	r.addRemoving(p)
	defer r.delRemoving(p)

	// The barrier only needs the queues with pending work under the
	// doomed subtree: RmTree touches nothing outside it, and creations
	// racing into it are handled by the removing-set discard above.
	epoch, drain, err := r.syncBarrier(at, p)
	if err != nil {
		return at, err
	}
	at = drain
	c.barrierReturned("rmdir", p)
	removed, done, rerr := c.backend.RmTree(at, p)
	at = done
	// Drop the subtree's cached directories on every backend in the
	// region, not just this client's (RmTree only cleans its own
	// instance). Internal DFS clients cache directories under long TTLs,
	// so a skipped node would keep resolving paths through the removed
	// directories, passing traversal checks the MDS would refuse.
	r.invalidateBackendSubtrees(p)
	// Bump the invalidation generation BEFORE cleaning the cache: a
	// cache-miss load whose DFS read predates the RmTree either adds
	// before our deletes below (we delete it) or checks the generation
	// under the key's lock after the bump (and adds nothing). Bumping
	// after the deletes would leave a window where such a load resurrects
	// the removed directory with nothing left to clean it up.
	r.invalGen.Add(1)
	if errors.Is(rerr, fsapi.ErrNotExist) {
		// Everything under the target was discarded before reaching the
		// DFS (the directory itself included): nothing left to remove
		// there, but the target's own cache entry may be a clean
		// (committed-earlier) copy the commit processes never touched.
		removed, rerr = []string{p}, nil
	}
	if rerr == nil {
		// Clean the removed subtree — the target is the last path RmTree
		// lists — out of the distributed cache. Each path is deleted
		// once: an entry accepted on an already-cleaned key is a newer
		// incarnation, and the discard rule, not this sweep, decides it.
		at = c.dropCached(at, removed)
	}
	r.barrier.Release(epoch, at)
	if rerr != nil {
		return at, fsapi.WrapPath("rmdir", p, rerr)
	}
	return at, nil
}

// Readdir is Table I's readdir: a barrier (scoped to the listed
// subtree) then the DFS's own listing — the cache is never scanned
// ("avoid the costly full table scan"). The post-barrier listing is the
// freshest view of the directory the region can produce, so its
// children are bulk-loaded into the distributed cache afterwards:
// follow-up stats (the ls -l pattern) then hit the cache instead of
// each paying a DFS round trip.
func (c *Client) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	p = namespace.Clean(p)
	defer c.end(c.begin("readdir", p))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(p) {
		// Outside (including merged peers) readdir goes to the DFS: we
		// cannot drain another region's queues, so the listing is only
		// as fresh as that region's commits (weak consistency across
		// regions, §III.A).
		return c.backend.Readdir(at, p)
	}
	at, err := c.checkPerm(at, p, fsapi.WantRead|fsapi.WantExec)
	if err != nil {
		return nil, at, err
	}
	epoch, drain, err := r.syncBarrier(at, p)
	if err != nil {
		return nil, at, err
	}
	at = drain
	c.barrierReturned("readdir", p)
	ents, done, rerr := c.backend.Readdir(at, p)
	at = done
	r.barrier.Release(epoch, at)
	if rerr != nil {
		return nil, at, fsapi.WrapPath("readdir", p, rerr)
	}
	r.readdirEntries.RecordN(int64(len(ents)))
	if len(ents) > 0 {
		// Warm the cache from the listing: a read of the children, whose
		// owners load what they do not hold. Safe after the release: the
		// stats come from fresh DFS reads under the load's
		// invalidation-generation guard, and the adds are add-if-absent,
		// so they can neither mask a newer queued mutation nor resurrect a
		// concurrently removed subtree.
		children := make([]string, len(ents))
		for i, ent := range ents {
			children[i] = namespace.Join(p, ent.Name)
		}
		at = c.lookupMulti(at, c.cache, true, children, nil, make([]fsapi.StatResult, len(children)))
	}
	return ents, at, nil
}

// Rename moves a file or directory inside the workspace. The paper's
// Table I does not define rename; this extension treats it as a
// dependent operation (like rmdir): a barrier drains the earlier
// asynchronous operations under the deepest directory holding both
// paths, the DFS applies the move synchronously, and the renamed
// subtree's cache entries are invalidated (they reload under the new
// path on demand).
func (c *Client) Rename(at vclock.Time, src, dst string) (vclock.Time, error) {
	src, dst = namespace.Clean(src), namespace.Clean(dst)
	defer c.end(c.begin("rename", src))
	at = c.overhead(at)
	r := c.region
	if !c.inWorkspace(src) || !c.inWorkspace(dst) {
		if _, m := r.mergedFor(src); m {
			return at, fsapi.WrapPath("rename", src, fsapi.ErrReadOnly)
		}
		if _, m := r.mergedFor(dst); m {
			return at, fsapi.WrapPath("rename", dst, fsapi.ErrReadOnly)
		}
		if c.inWorkspace(src) != c.inWorkspace(dst) {
			// Cross-boundary moves would need cross-consistency-domain
			// coordination the model does not define.
			return at, fsapi.WrapPath("rename", dst, fsapi.ErrPermission)
		}
		return c.backend.Rename(at, src, dst)
	}
	if src == r.cfg.Workspace {
		return at, fsapi.WrapPath("rename", src, fsapi.ErrPermission)
	}
	at, err := c.checkPerm(at, src, fsapi.WantWrite)
	if err != nil {
		return at, err
	}
	if at, err = c.checkPerm(at, dst, fsapi.WantWrite); err != nil {
		return at, err
	}

	// Rename's footprint is two subtrees plus both parents' listings, all
	// under the deepest directory holding both paths: an op there is on
	// src, on dst, or on dst's parent (its pending mkdir). An op above it
	// is on an ancestor of src, whose own create is then under the scope
	// and waits in the commit process until the ancestor lands.
	epoch, drain, err := r.syncBarrier(at, namespace.CommonDir(src, dst))
	if err != nil {
		return at, err
	}
	at = drain
	c.barrierReturned("rename", src)
	done, rerr := c.backend.Rename(at, src, dst)
	at = done
	if rerr == nil {
		// Invalidate the moved subtree's old-path entries: enumerate on
		// the DFS (authoritative after the drain) from the new location.
		// Dentry fan-out (both ends — src's directories are gone, dst's
		// changed), then the generation bump before the cache cleanup:
		// same load-resurrection race as rmdir's.
		r.invalidateBackendSubtrees(src)
		r.invalidateBackendSubtrees(dst)
		r.invalGen.Add(1)
		at = c.invalidateMoved(at, src, dst)
	}
	r.barrier.Release(epoch, at)
	if rerr != nil {
		return at, fsapi.WrapPath("rename", src, rerr)
	}
	return at, nil
}

// invalidateMoved deletes cache entries under the old path of a renamed
// subtree, discovering its shape from the new location on the DFS.
func (c *Client) invalidateMoved(at vclock.Time, src, dst string) vclock.Time {
	at, old := c.movedPaths(at, src, dst, nil)
	return c.dropCached(at, old)
}

// movedPaths appends to old the pre-rename path of everything in the
// subtree now at dst.
func (c *Client) movedPaths(at vclock.Time, src, dst string, old []string) (vclock.Time, []string) {
	old = append(old, src)
	st, done, err := c.backend.Stat(at, dst)
	at = done
	if err != nil || !st.IsDir() {
		return at, old
	}
	ents, done, err := c.backend.Readdir(at, dst)
	at = done
	if err != nil {
		return at, old
	}
	for _, ent := range ents {
		at, old = c.movedPaths(at, namespace.Join(src, ent.Name), namespace.Join(dst, ent.Name), old)
	}
	return at, old
}

// dropCached deletes paths' cache entries — whatever they hold: the
// objects are gone from the DFS (rmdir) or live under another name
// (rename) — with one mutate_multi round trip per owning cache server per
// evictChunk paths.
// Errors are ignored: an unreachable server's entries went with it.
func (c *Client) dropCached(at vclock.Time, paths []string) vclock.Time {
	for len(paths) > 0 {
		n := min(len(paths), evictChunk)
		_, _, at, _ = settlePaths(c.cache, at, paths[:n], evDrop)
		paths = paths[n:]
	}
	return at
}
