package dfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// ClientConfig configures a DFS client instance (one per client process).
type ClientConfig struct {
	// Node is the node this client runs on (for latency selection).
	Node string
	// Shards is the map of the metadata service, required: every
	// metadata operation routes by it (router.go). Each shard owns a
	// disjoint slice of the namespace (see ShardMap), structural
	// directories are mirrored on all of them, and an operation that
	// must be atomic across several runs the two-phase protocol. A
	// single MDS is a one-shard map (NewCluster builds one).
	Shards *ShardMap
	// DataAddrs are the data servers' RPC addresses in stripe order.
	DataAddrs []string
	// Cred is the system user the client acts as.
	Cred fsapi.Cred
	// Model is the latency model.
	Model vclock.LatencyModel
	// DentryCacheCap bounds the client's directory cache (entries). 0
	// disables caching entirely.
	DentryCacheCap int
	// DentryTTL is the virtual-time validity of a cached directory. The
	// default 0 disables reuse — the strong-consistency behavior of the
	// paper's BeeGFS baseline, where the client revalidates every path
	// component against the MDS on every access. Pacon's internal clients
	// set a long TTL: directories under a workspace go away only through
	// Pacon's own rmdir and rename, which drop them on every client of the
	// region (InvalidateSubtree).
	DentryTTL vclock.Duration
}

// Client is a DFS client: it resolves paths component by component
// against the MDS (costing one RPC per uncached component — the
// traversal the paper's Fig 2 measures) and stripes file data across the
// data servers.
type Client struct {
	cfg    ClientConfig
	caller *rpc.Caller

	// mirrorPick is this client's stable choice among the mirrors of a
	// structural path: any mirror answers reads, and a per-client stable
	// pick spreads the load without ping-ponging the shards' dentry
	// working sets.
	mirrorPick int

	// dentries is a directory cache: every entry is a directory, and
	// resolveAncestors is its only reader. It saves the lookups of path
	// resolution and never answers for the path a caller asked about.
	mu       sync.Mutex
	dentries map[string]dentry
}

type dentry struct {
	stat    fsapi.Stat
	expires vclock.Time
}

// NewClient builds a client over the given transport.
func NewClient(t rpc.Transport, cfg ClientConfig) *Client {
	h := fnv.New32a()
	h.Write([]byte(cfg.Node))
	return &Client{
		cfg:        cfg,
		caller:     rpc.NewCaller(t, cfg.Model, cfg.Node),
		mirrorPick: int(h.Sum32() % uint32(cfg.Shards.N())),
		dentries:   make(map[string]dentry),
	}
}

// Pace attaches a virtual-time pacer to this client's RPC caller (see
// vclock.Pacer); id is the client's participant index.
func (c *Client) Pace(p *vclock.Pacer, id int) { c.caller.Pace(p, id) }

// SetTrace tags subsequent DFS RPCs with the span's trace context so
// the MDS handler timings land in the originating op's span.
func (c *Client) SetTrace(span uint64) { c.caller.SetTrace(span) }

// ClearTrace removes the trace context set by SetTrace.
func (c *Client) ClearTrace() { c.caller.ClearTrace() }

func (c *Client) cacheGet(p string, at vclock.Time) (fsapi.Stat, bool) {
	if c.cfg.DentryCacheCap <= 0 || c.cfg.DentryTTL <= 0 {
		return fsapi.Stat{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.dentries[p]
	if !ok || at > d.expires {
		return fsapi.Stat{}, false
	}
	return d.stat, true
}

// cachePut records what the MDS just answered for p. A directory goes
// into the cache, to serve later as an ancestor; for anything else the
// answer only drops whatever entry p had — the MDS no longer vouches for
// a directory there.
func (c *Client) cachePut(p string, st fsapi.Stat, at vclock.Time) {
	if c.cfg.DentryCacheCap <= 0 || c.cfg.DentryTTL <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !st.IsDir() {
		delete(c.dentries, p)
		return
	}
	if len(c.dentries) >= c.cfg.DentryCacheCap {
		// Capacity eviction: drop an arbitrary entry (map order), the
		// thrashing behavior random stats exhibit on a bounded dcache.
		for k := range c.dentries {
			delete(c.dentries, k)
			break
		}
	}
	c.dentries[p] = dentry{stat: st, expires: at.Add(c.cfg.DentryTTL)}
}

func (c *Client) cacheDrop(p string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.dentries, p)
}

// InvalidateSubtree drops every cached directory at or under root. Pacon
// calls this on all of a region's DFS clients when a dependent
// operation (rmdir, rename) unlinks a subtree: internal clients run
// with long dentry TTLs, so without the fan-out the other nodes' clients
// would keep resolving paths through the unlinked directories — passing
// a traversal check the MDS would refuse — until the TTL lapsed.
func (c *Client) InvalidateSubtree(root string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.dentries {
		if namespace.IsUnder(k, root) {
			delete(c.dentries, k)
		}
	}
}

// lookupRPC issues one lookup to the MDS: p's stat and inode number.
func (c *Client) lookupRPC(at vclock.Time, p string) (fsapi.Stat, uint64, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(p)
	var st fsapi.Stat
	var ino uint64
	done, err := c.call(c.mdsFor(p), "lookup", at, e, func(resp []byte) error {
		d := wire.NewDecoder(resp)
		st = fsapi.DecodeStat(d)
		ino = d.Uint64()
		return d.Finish()
	})
	return st, ino, done, err
}

// resolveAncestors walks every proper ancestor of p, charging one lookup
// RPC per uncached component and checking traversal (exec) permission —
// the layer-by-layer path traversal Pacon's batch permissions avoid. It
// is the directory cache's only reader. An entry says that the directory
// exists and what its mode and owner are, never that this client may
// pass through it: whoever inserted it (a Stat of the directory itself
// needs no permission on it) checked nothing, so the permission is
// computed here on every use, cached or not.
func (c *Client) resolveAncestors(at vclock.Time, p string) (vclock.Time, error) {
	var rerr error
	namespace.VisitAncestors(p, func(anc string) bool {
		st, cached := c.cacheGet(anc, at)
		if !cached {
			if st, _, at, rerr = c.lookupRPC(at, anc); rerr != nil {
				return false
			}
			c.cachePut(anc, st, at)
		}
		if !st.IsDir() {
			rerr = fsapi.WrapPath("traverse", anc, fsapi.ErrNotDir)
			return false
		}
		if !st.Mode.Allows(c.cfg.Cred.ClassFor(st.UID, st.GID), fsapi.WantExec) {
			rerr = fsapi.WrapPath("traverse", anc, fsapi.ErrPermission)
			return false
		}
		return true
	})
	return at, rerr
}

// applyTo sends the ops at positions idx to one MDS as one apply_batch
// and stores each one's result at its position in errs, and each
// applied op's inode in its Ino (fsapi.BatchOp) — the only encoder of
// that frame and the only decoder of its reply, whether the ops are one
// directory group of a commit wave or one mutation on its own.
// A round trip that failed, or a reply that does not decode, says
// nothing about any of these ops, so that error becomes the result of
// each of them — and of no op sent elsewhere: a dead shard never costs
// a caller what a live one answered.
func (c *Client) applyTo(addr string, at vclock.Time, ops []fsapi.BatchOp, idx []int, errs []error) vclock.Time {
	e := wire.GetEncoder()
	c.encodeApply(e, ops, idx)
	done, err := c.call(addr, "apply_batch", at, e, func(resp []byte) error {
		return c.decodeApply(resp, ops, idx, errs)
	})
	if err != nil {
		for _, i := range idx {
			errs[i] = err
		}
	}
	return done
}

func (c *Client) encodeApply(e *wire.Encoder, ops []fsapi.BatchOp, idx []int) {
	e.Uint32(c.cfg.Cred.UID)
	e.Uint32(c.cfg.Cred.GID)
	e.Uvarint(uint64(len(idx)))
	for _, i := range idx {
		op := &ops[i]
		e.Byte(byte(op.Kind))
		e.Bool(op.IfExists)
		e.String(op.Path)
		fsapi.EncodeStat(e, op.Stat)
	}
}

func (c *Client) decodeApply(resp []byte, ops []fsapi.BatchOp, idx []int, errs []error) error {
	d := wire.NewDecoder(resp)
	if n := d.Uvarint(); n != uint64(len(idx)) {
		return fmt.Errorf("dfs: apply_batch returned %d results for %d ops", n, len(idx))
	}
	for _, i := range idx {
		op := &ops[i]
		code := d.Byte()
		detail := d.String()
		errs[i], op.Ino = fsapi.ErrOf(code, detail), 0
		if errs[i] != nil {
			continue
		}
		op.Ino = d.Uint64()
		switch op.Kind {
		case fsapi.BatchRemove:
			op.Stat.Size = int64(d.Uvarint())
			c.cacheDrop(op.Path)
		case fsapi.BatchSetStat, fsapi.BatchRmdir:
			c.cacheDrop(op.Path)
		}
	}
	return d.Finish()
}

// oneOp is the position list of a batch of one.
var oneOp = []int{0}

// mutate applies one mutation as a batch of one: to the owner of its
// path, or — a structural path — to every shard's mirror, all leaving at
// the same instant. Every mirror is attempted even after an error,
// keeping the mirrors in lockstep; the first error is reported. To the
// caller a failed call and a refused op are the same thing. The op's Ino
// is filled in as ApplyBatch fills it, and a remove that freed bytes
// drops them (dropFreed).
func (c *Client) mutate(at vclock.Time, op *fsapi.BatchOp) (vclock.Time, error) {
	op.Path = namespace.Clean(op.Path)
	at, err := c.resolveAncestors(at, op.Path)
	if err != nil {
		return at, err
	}
	at, err = c.mutateOn(c.targets(op.Path), at, op)
	if freed(op) {
		c.dropFreed(at, []namespace.Inode{{Ino: op.Ino, Size: op.Stat.Size}})
	}
	return at, err
}

// mutateOn sends op, alone, to each target (its path already cleaned and
// resolved).
func (c *Client) mutateOn(targets []string, at vclock.Time, op *fsapi.BatchOp) (vclock.Time, error) {
	ops, errs := [1]fsapi.BatchOp{*op}, [1]error{}
	defer func() { *op = ops[0] }()
	if len(targets) == 1 {
		return c.applyTo(targets[0], at, ops[:], oneOp, errs[:]), errs[0]
	}
	e := wire.GetEncoder()
	c.encodeApply(e, ops[:], oneOp)
	replies, done := c.sweep(at, targets, "apply_batch", e)
	var first error
	for _, r := range replies {
		err := r.err
		if err == nil {
			if err = c.decodeApply(r.body, ops[:], oneOp, errs[:]); err == nil {
				err = errs[0]
			}
		}
		if first == nil {
			first = err
		}
	}
	return done, first
}

// Mkdir creates a directory.
func (c *Client) Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	return c.mutate(at, &fsapi.BatchOp{Kind: fsapi.BatchMkdir, Path: p, Stat: fsapi.NewDirStat(c.cfg.Cred, mode)})
}

// Create creates an empty regular file.
func (c *Client) Create(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	return c.mutate(at, &fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: p, Stat: fsapi.NewFileStat(c.cfg.Cred, mode)})
}

// CreateWithStat creates a file or directory carrying a prebuilt stat
// (used by the Pacon commit module to preserve cached metadata exactly).
func (c *Client) CreateWithStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	kind := fsapi.BatchCreate
	if st.IsDir() {
		kind = fsapi.BatchMkdir
	}
	return c.mutate(at, &fsapi.BatchOp{Kind: kind, Path: p, Stat: st})
}

// SetStat replaces an object's metadata.
func (c *Client) SetStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	return c.mutate(at, &fsapi.BatchOp{Kind: fsapi.BatchSetStat, Path: p, Stat: st})
}

// Stat resolves a path's metadata: traversal, which the directory cache
// may shorten, plus a lookup of p itself, which nothing does — the
// answer for the path asked about always comes from the MDS. It is the
// authoritative read: what Pacon's cache-miss loads install as a
// region's primary copy, and what ReadAt and WriteAt size their work by,
// must be the backup copy as it is now, not a snapshot that predates any
// number of asynchronously committed updates. A directory's answer is
// also cached, to serve later as an ancestor.
func (c *Client) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	st, _, at, err := c.stat(at, namespace.Clean(p))
	return st, at, err
}

// stat is Stat of a cleaned path, with the inode number its lookup
// answered beside the stat: the one the path's chunks are keyed by.
func (c *Client) stat(at vclock.Time, p string) (fsapi.Stat, uint64, vclock.Time, error) {
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return fsapi.Stat{}, 0, at, err
	}
	st, ino, done, err := c.lookupRPC(at, p)
	if err != nil {
		c.cacheDrop(p) // whatever dentry is there, the MDS no longer vouches for it
		return fsapi.Stat{}, 0, done, err
	}
	c.cachePut(p, st, done)
	return st, ino, done, nil
}

// StatFresh is Stat. It exists for benchmark/trace.go, which wraps every
// exported method of this client and may not change; nothing else in the
// repository calls it.
func (c *Client) StatFresh(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	return c.Stat(at, p)
}

// Remove unlinks a file. If it held bytes, their chunks are dropped from
// the instant the MDS answered; the returned time does not wait for that.
func (c *Client) Remove(at vclock.Time, p string) (vclock.Time, error) {
	return c.mutate(at, &fsapi.BatchOp{Kind: fsapi.BatchRemove, Path: p})
}

// Rmdir removes an empty directory. A mirrored directory removes
// through the two-phase protocol: every shard votes (locally a dir,
// locally empty) and logs an intent blocking creates under it, so no
// shard unlinks a mirror the others keep; unanimous yes finishes with the
// unlink everywhere.
func (c *Client) Rmdir(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	targets := c.targets(p)
	if len(targets) == 1 {
		return c.mutateOn(targets, at, &fsapi.BatchOp{Kind: fsapi.BatchRmdir, Path: p})
	}
	outs, at, err := c.twoPhase(at, p, targets, rmdirPrepare, finishSweep, nil)
	if err == nil {
		err = firstErr(outs)
	}
	if err == nil {
		c.cacheDrop(p)
	}
	return at, err
}

// RmTree removes a directory recursively, returning the removed paths —
// the union over every shard the subtree touches. A mirrored directory's
// sweeps are the finish step of the two-phase protocol: intents bracket
// them, so a racing create into the doomed subtree fails with ErrStale
// instead of landing on a shard that was already swept. The chunks of
// the removed files that held bytes are dropped as Remove drops them.
func (c *Client) RmTree(at vclock.Time, p string) ([]string, vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return nil, at, err
	}
	targets := c.targets(p)
	var outs []reply
	if len(targets) == 1 {
		outs, at = c.send(at, targets, rmtreeSweep, p, 0)
	} else if outs, at, err = c.twoPhase(at, p, targets, rmtreePrepare, rmtreeSweep, nil); err != nil {
		return nil, at, err
	}
	// A shard that never materialized the directory has nothing to
	// sweep; a mirrored one is reported by every shard that did.
	var removed []string
	var freed []namespace.Inode
	defer func() { c.dropFreed(at, freed) }()
	var seen map[string]bool
	for _, r := range outs {
		if fsapi.CodeOf(r.err) == fsapi.CodeNotExist {
			continue
		}
		if r.err != nil {
			return nil, at, r.err
		}
		d := wire.NewDecoder(r.body)
		paths := d.Strings() // count-guarded: a reply cannot size this by a number it made up
		freed = decodeInodes(d, freed)
		if err := d.Finish(); err != nil {
			return nil, at, err
		}
		if removed == nil {
			removed = paths
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, len(removed)+len(paths))
			for _, rp := range removed {
				seen[rp] = true
			}
		}
		for _, rp := range paths {
			if !seen[rp] {
				seen[rp] = true
				removed = append(removed, rp)
			}
		}
	}
	if removed == nil {
		return nil, at, fsapi.WrapPath("rmtree", p, fsapi.ErrNotExist)
	}
	c.InvalidateSubtree(p)
	return removed, at, nil
}

// Rename moves a file or subtree. Both ends on one shard is a single
// "rename" RPC to it; across two shards the move is the two-phase
// protocol with the source as its participant — prepare exports the
// subtree under an intent, inserting the export on the destination
// shard is the decision, finish unlinks the source. Structural
// endpoints are refused: moving a mirrored directory has no atomic
// implementation. It is metadata only: every object keeps its inode
// number, and the data servers key chunks by that, so no byte moves.
func (c *Client) Rename(at vclock.Time, src, dst string) (vclock.Time, error) {
	src, dst = namespace.Clean(src), namespace.Clean(dst)
	at, err := c.resolveAncestors(at, src)
	if err != nil {
		return at, err
	}
	if at, err = c.resolveAncestors(at, dst); err != nil {
		return at, err
	}
	s := c.cfg.Shards
	from, to := s.route(src), s.route(dst)
	switch {
	case from < 0 || to < 0:
		return at, fsapi.WrapPath("rename", src, fsapi.ErrPermission)
	case from == to:
		e := wire.GetEncoder()
		e.String(src)
		e.String(dst)
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
		at, err = c.call(s.addrs[from], "rename", at, e, nil)
	default:
		at, err = c.renameAcross(at, s.addrs[from:from+1], s.addrs[to], src, dst)
	}
	if err != nil {
		return at, err
	}
	c.InvalidateSubtree(src)
	return at, nil
}

// renameAcross moves src, on the shard in from, to dst on another shard.
func (c *Client) renameAcross(at vclock.Time, from []string, to, src, dst string) (vclock.Time, error) {
	outs, at, err := c.twoPhase(at, src, from, renamePrepare, finishSweep,
		func(at vclock.Time, votes []reply) (vclock.Time, error) {
			return c.xferApply(at, to, dst, votes[0].body)
		})
	if err == nil {
		err = outs[0].err
	}
	return at, err
}

// xferApply is a cross-shard rename's decision: insert the subtree the
// source exported (an xfer_prepare reply, checked here before it is
// passed on) under dst on the destination shard. Failure aborts — the
// subtree never moved.
func (c *Client) xferApply(at vclock.Time, addr, dst string, export []byte) (vclock.Time, error) {
	d := wire.NewDecoder(export)
	n := d.Count()
	e := wire.GetEncoder()
	e.String(dst)
	e.Uint32(c.cfg.Cred.UID)
	e.Uint32(c.cfg.Cred.GID)
	e.Uvarint(uint64(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		e.String(d.String())
		fsapi.EncodeStat(e, fsapi.DecodeStat(d))
		e.Uint64(d.Uint64())
	}
	if err := d.Finish(); err != nil {
		wire.PutEncoder(e)
		return at, err
	}
	return c.call(addr, "xfer_apply", at, e, nil)
}

// Readdir lists a directory. A mirrored directory merges the per-shard
// listings, each shard holding the hashed children it owns. Entries are
// deduplicated by name (mirrored subdirectories appear on several
// shards) and the per-shard name-sorted order is preserved by a merge.
func (c *Client) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return nil, at, err
	}
	e := wire.GetEncoder()
	e.String(p)
	outs, at := c.sweep(at, c.targets(p), "readdir", e)
	lists := make([][]fsapi.DirEntry, 0, len(outs))
	for _, r := range outs {
		if fsapi.CodeOf(r.err) == fsapi.CodeNotExist {
			continue // never materialized on that shard
		}
		if r.err != nil {
			return nil, at, r.err
		}
		ents, err := decodeDirEntries(r.body)
		if err != nil {
			return nil, at, err
		}
		lists = append(lists, ents)
	}
	if len(lists) == 0 {
		return nil, at, fsapi.WrapPath("readdir", p, fsapi.ErrNotExist)
	}
	return mergeDirEntries(lists), at, nil
}

// chunkSpan locates byte pos of a file: the chunk holding it, its offset
// in that chunk, and how many of the next want bytes the chunk holds.
func chunkSpan(pos int64, want int) (chunk int64, inOff, n int) {
	inOff = int(pos % ChunkSize)
	return pos / ChunkSize, inOff, min(want, ChunkSize-inOff)
}

// serverIndex maps a chunk of an inode to its data server's position in
// DataAddrs, striping consecutive chunks round-robin from a per-file
// starting server that a hash of the inode number picks.
func (c *Client) serverIndex(ino uint64, chunk int64) int {
	// SplitMix64's finalizer: consecutive numbers land far apart.
	h := (ino ^ ino>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	n := uint64(len(c.cfg.DataAddrs))
	return int((h%n + uint64(chunk)) % n)
}

func (c *Client) serverFor(ino uint64, chunk int64) string {
	return c.cfg.DataAddrs[c.serverIndex(ino, chunk)]
}

var (
	errNoDataServers = errors.New("dfs: no data servers configured")
	errNoInode       = errors.New("dfs: write names no inode")
)

// encodeWrite appends one write_multi entry: data goes to offset inOff of
// chunk `chunk` of inode ino.
func encodeWrite(e *wire.Encoder, ino uint64, chunk int64, inOff int, data []byte) {
	e.Uint64(ino)
	e.Int64(chunk)
	e.Uint32(uint32(inOff))
	e.Blob(data)
}

// readChunks reads n bytes at off from inode ino's striped chunks;
// sparse regions read as zeros.
func (c *Client) readChunks(at vclock.Time, ino uint64, off int64, n int) ([]byte, vclock.Time, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		chunk, inOff, want := chunkSpan(off+int64(len(out)), n-len(out))
		e := wire.GetEncoder()
		e.Uint64(ino)
		e.Int64(chunk)
		e.Uint32(uint32(inOff))
		e.Uint32(uint32(want))
		done, err := c.call(c.serverFor(ino, chunk), "read", at, e, func(resp []byte) error {
			d := wire.NewDecoder(resp)
			part := d.BlobView()
			if err := d.Finish(); err != nil {
				return err
			}
			// A sparse region reads as zeros to the requested length.
			out = append(out, part...)
			out = append(out, make([]byte, want-min(want, len(part)))...)
			return nil
		})
		at = done
		if err != nil {
			return nil, at, err
		}
	}
	return out, at, nil
}

// freed reports whether op unlinked a file that held bytes: an applied
// remove's answer carries the file's inode and size.
func freed(op *fsapi.BatchOp) bool {
	return op.Kind == fsapi.BatchRemove && op.Ino != 0 && op.Stat.Size > 0
}

// dropFreed frees the chunks of the given unlinked files: one drop_multi
// to each data server that holds a chunk of any of them, naming its
// share, every call leaving at `at`. The unlinks have been answered; this
// is cleanup charged to the data servers, so nobody waits for it and its
// completion is not returned. A file of size s has chunks on the
// ceil(s/ChunkSize) servers that follow its first, at most all of them.
func (c *Client) dropFreed(at vclock.Time, freed []namespace.Inode) {
	n := len(c.cfg.DataAddrs)
	if len(freed) == 0 || n == 0 {
		return
	}
	holds := func(srv int, f namespace.Inode) bool {
		k := (srv - c.serverIndex(f.Ino, 0) + n) % n
		return int64(k)*ChunkSize < f.Size
	}
	for srv, addr := range c.cfg.DataAddrs {
		count := 0
		for _, f := range freed {
			if holds(srv, f) {
				count++
			}
		}
		if count == 0 {
			continue
		}
		e := wire.GetEncoder()
		e.Uvarint(uint64(count))
		for _, f := range freed {
			if holds(srv, f) {
				e.Uint64(f.Ino)
			}
		}
		c.call(addr, "drop_multi", at, e, nil)
	}
}

// WriteAt stripes data across the data servers, one write_multi frame of
// one entry per chunk touched, and bumps the file size at the MDS if the
// write extends it.
func (c *Client) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	p = namespace.Clean(p)
	if len(c.cfg.DataAddrs) == 0 {
		return at, errNoDataServers
	}
	st, ino, at, err := c.stat(at, p)
	if err != nil {
		return at, err
	}
	if st.IsDir() {
		return at, fsapi.WrapPath("write", p, fsapi.ErrIsDir)
	}
	for n := 0; n < len(data); {
		chunk, inOff, room := chunkSpan(off+int64(n), len(data)-n)
		e := wire.GetEncoder()
		e.Uvarint(1)
		encodeWrite(e, ino, chunk, inOff, data[n:n+room])
		done, err := c.call(c.serverFor(ino, chunk), "write_multi", at, e, nil)
		if err != nil {
			return done, err
		}
		at = done
		n += room
	}
	if end := off + int64(len(data)); end > st.Size {
		st.Size = end
		return c.SetStat(at, p, st)
	}
	return at, nil
}

// WriteBatch writes whole small files, each at offset 0, for a caller
// that has just created them or set their stat — a commit wave, whose
// apply_batch carried every file's size and was answered a moment ago
// with each file's inode (fsapi.FileWrite.Ino, from fsapi.BatchOp.Ino).
// So nothing here asks the MDS anything: no Stat, no size update, and a
// dead metadata shard cannot fail a write-back. A file with bytes and no
// inode fails in its slot. Each data server touched
// gets one write_multi holding its share of the files, all leaving at
// `at`. The returned slice has one entry per file — nil for success, a
// server's error for every file with a piece on it — and that is all
// there is to read; the batch-level error is for a client with no data
// servers, and for core.Backend implementations that cannot say more.
func (c *Client) WriteBatch(at vclock.Time, files []fsapi.FileWrite) ([]error, vclock.Time, error) {
	if len(c.cfg.DataAddrs) == 0 {
		return nil, at, errNoDataServers
	}
	errs := make([]error, len(files))
	// The common wave owes two or three small files and they often share
	// a server: that one is called right here, and nothing below is built.
	lone, entries, spread := -1, 0, false
	for i := range files {
		f := &files[i]
		f.Path = namespace.Clean(f.Path)
		if len(f.Data) == 0 {
			continue
		}
		if f.Ino == 0 {
			errs[i], f.Data = fsapi.WrapPath("write", f.Path, errNoInode), nil // no frame carries it
			continue
		}
		srv := c.serverIndex(f.Ino, 0)
		spread = spread || len(f.Data) > ChunkSize || lone >= 0 && srv != lone
		lone = srv
		entries++
	}
	switch {
	case entries == 0:
		return errs, at, nil
	case spread:
		return errs, c.writeFanOut(at, files, errs), nil
	}
	e := wire.GetEncoder()
	e.Uvarint(uint64(entries))
	for i := range files {
		if f := &files[i]; len(f.Data) > 0 {
			encodeWrite(e, f.Ino, 0, 0, f.Data)
		}
	}
	done, err := c.call(c.cfg.DataAddrs[lone], "write_multi", at, e, nil)
	if err != nil {
		for i := range errs {
			if len(files[i].Data) > 0 {
				errs[i] = err
			}
		}
	}
	return errs, done, nil
}

// writeFanOut is WriteBatch over several data servers: count each
// server's entries, send every server touched its frame from the same
// virtual instant, and give each file the error of the first server, in
// stripe order, that failed a piece of it.
func (c *Client) writeFanOut(at vclock.Time, files []fsapi.FileWrite, errs []error) vclock.Time {
	n := len(c.cfg.DataAddrs)
	// One allocation: entries per server, the servers touched, and each
	// file's first server (piece k of a file goes to server first+k).
	scratch := make([]int, 2*n+len(files))
	counts, touched, first := scratch[:n], scratch[n:n], scratch[2*n:]
	for i := range files {
		first[i] = c.serverIndex(files[i].Ino, 0)
		for k := 0; k*ChunkSize < len(files[i].Data); k++ {
			counts[(first[i]+k)%n]++
		}
	}
	for srv, entries := range counts {
		if entries > 0 {
			touched = append(touched, srv)
		}
	}
	failed := make([]error, n)
	done := c.caller.FanOut(at, len(touched), false, func(t int) vclock.Time {
		to := touched[t]
		e := wire.GetEncoder()
		e.Uvarint(uint64(counts[to]))
		for i := range files {
			data := files[i].Data
			for k := 0; k*ChunkSize < len(data); k++ {
				if (first[i]+k)%n == to {
					encodeWrite(e, files[i].Ino, int64(k), 0, data[k*ChunkSize:min((k+1)*ChunkSize, len(data))])
				}
			}
		}
		done, err := c.call(c.cfg.DataAddrs[to], "write_multi", at, e, nil)
		failed[to] = err
		return done
	})
	for i := range files {
		for k := 0; k*ChunkSize < len(files[i].Data) && errs[i] == nil; k++ {
			errs[i] = failed[(first[i]+k)%n]
		}
	}
	return done
}

// ReadAt reads up to n bytes from the striped chunks.
func (c *Client) ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error) {
	p = namespace.Clean(p)
	if len(c.cfg.DataAddrs) == 0 {
		return nil, at, errNoDataServers
	}
	st, ino, at, err := c.stat(at, p)
	if err != nil {
		return nil, at, err
	}
	if off >= st.Size {
		return nil, at, nil
	}
	return c.readChunks(at, ino, off, int(min(int64(n), st.Size-off)))
}

// StatBatch resolves a set of paths in as few MDS round trips as
// possible: one "stat_batch" RPC per metadata server touched. Each path
// gets exactly what Stat would give it — ancestors resolved per path,
// the path itself always answered by the MDS, a directory's answer
// cached. The returned slice has one entry per path and that is all
// there is to read: a path whose ancestors did not resolve, and every
// path of a shard whose round trip failed, carries that error in its own
// entry while the other shards' stats stand. The batch-level error is
// always nil; core.Backend keeps it for implementations that cannot say
// more.
func (c *Client) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	if len(paths) == 0 {
		return nil, at, nil
	}
	out := make([]fsapi.StatResult, len(paths))
	cleaned := make([]string, len(paths))
	for i, p := range paths {
		cleaned[i] = namespace.Clean(p)
		at, out[i].Err = c.resolveAncestors(at, cleaned[i])
	}
	s := c.cfg.Shards
	groups := s.group(len(paths), func(i int) int {
		if out[i].Err != nil {
			return -1
		}
		if k := s.route(cleaned[i]); k >= 0 {
			return k
		}
		return c.mirrorPick
	})
	// One RPC per MDS, all issued at the same virtual instant; a lone
	// group — every batch on one MDS — is called directly and builds no
	// closure.
	if len(groups) == 1 {
		at = c.statGroup(groups[0], at, cleaned, out)
	} else {
		at = c.perShard(at, groups, func(g shardGroup, at vclock.Time) vclock.Time {
			return c.statGroup(g, at, cleaned, out)
		})
	}
	return out, at, nil
}

// statGroup resolves one shard's share of a StatBatch into its own
// positions of out. A round trip that failed, or a reply that does not
// decode, says nothing about any of these paths, so that error becomes
// the result of each of them (applyTo's rule).
func (c *Client) statGroup(g shardGroup, at vclock.Time, cleaned []string, out []fsapi.StatResult) vclock.Time {
	e := wire.GetEncoder()
	e.Uvarint(uint64(len(g.idx)))
	for _, i := range g.idx {
		e.String(cleaned[i])
	}
	// Not c.call: the reply is decoded knowing when it arrived, which
	// dates the dentries it caches.
	reply := wire.GetEncoder()
	done, err := c.caller.CallInto(g.addr, "stat_batch", at, e.Bytes(), reply)
	wire.PutEncoder(e)
	if err == nil {
		err = c.decodeStats(reply.Bytes(), done, g.idx, cleaned, out)
	}
	wire.PutEncoder(reply)
	if err != nil {
		for _, i := range g.idx {
			out[i] = fsapi.StatResult{Err: err}
		}
	}
	return done
}

// decodeStats reads a stat_batch reply, received at virtual time at.
func (c *Client) decodeStats(resp []byte, at vclock.Time, idx []int, cleaned []string, out []fsapi.StatResult) error {
	d := wire.NewDecoder(resp)
	if n := d.Uvarint(); n != uint64(len(idx)) {
		return fmt.Errorf("dfs: stat_batch returned %d results for %d paths", n, len(idx))
	}
	for _, i := range idx {
		code := d.Byte()
		if code == fsapi.CodeOK {
			out[i].Stat = fsapi.DecodeStat(d)
			if d.Err() == nil {
				c.cachePut(cleaned[i], out[i].Stat, at)
			}
		} else {
			detail := d.String()
			out[i].Err = fsapi.ErrOf(code, detail)
			c.cacheDrop(cleaned[i])
		}
	}
	return d.Finish()
}

// ApplyBatch applies a batch of mutations in one round trip per (owning
// MDS, directory group) instead of one per op, every request leaving at
// the same instant (applyDirs: the grouping rule, and why the answers are
// those of in-order application). Ancestor resolution still happens per
// op (the cached dentries make it nearly free for the commit module's
// long-TTL clients). The returned slice has one entry per op — nil for
// success — and that is all there is to read: an op whose ancestors did
// not resolve, and every op of a request whose round trip failed, carries
// that error in its own slot while the other requests' answers stand. The
// batch-level error is always nil; core.Backend keeps it for
// implementations that cannot say more. Each op that applied has its Ino
// filled in (fsapi.BatchOp), and the chunks of the files its removes
// freed are dropped from the instant the batch was answered, which the
// returned time does not wait for. A batch of one is the mutation the
// singleton methods send (mutate), so a commit wave holding a lone op
// allocates only the result it returns; len(ops) alone decides.
func (c *Client) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	switch len(ops) {
	case 0:
		return nil, at, nil
	case 1:
		done, err := c.mutate(at, &ops[0])
		return []error{err}, done, nil
	}
	errs := make([]error, len(ops))
	// Resolve ancestors first (serially — each resolve advances the
	// virtual clock like any client-side traversal would).
	for i := range ops {
		ops[i].Path = namespace.Clean(ops[i].Path)
		ops[i].Ino = 0
		at, errs[i] = c.resolveAncestors(at, ops[i].Path)
	}
	done := c.applyResolved(at, ops, errs)
	var scratch [8]namespace.Inode
	list := scratch[:0]
	for i := range ops {
		if op := &ops[i]; freed(op) {
			list = append(list, namespace.Inode{Ino: op.Ino, Size: op.Stat.Size})
		}
	}
	c.dropFreed(done, list)
	return errs, done, nil
}

// applyResolved is ApplyBatch of ops whose ancestors resolved (errs nil).
func (c *Client) applyResolved(at vclock.Time, ops []fsapi.BatchOp, errs []error) vclock.Time {
	s := c.cfg.Shards
	if s.N() == 1 {
		// One MDS takes every resolved op: there is no shard to bucket by.
		var scratch [8]int
		idx := scratch[:0]
		for i := range ops {
			if errs[i] == nil {
				idx = append(idx, i)
			}
		}
		return c.applyDirs(s.addrs[0], at, ops, idx, errs)
	}
	// Group the survivors by owning MDS, preserving order within a
	// group. An op on a structural (mirrored) path goes to every shard
	// on its own instead — rare, since Pacon mutates workspace-interior
	// paths, not the workspace skeleton.
	var mirrored []int
	groups := s.group(len(ops), func(i int) int {
		if errs[i] != nil {
			return -1
		}
		k := s.route(ops[i].Path)
		if k < 0 {
			mirrored = append(mirrored, i)
		}
		return k
	})
	latest := at
	for _, i := range mirrored {
		var done vclock.Time
		done, errs[i] = c.mutateOn(s.addrs, at, &ops[i])
		latest = vclock.Max(latest, done)
	}
	var done vclock.Time
	if len(groups) == 1 {
		done = c.applyDirs(groups[0].addr, at, ops, groups[0].idx, errs)
	} else {
		done = c.perShard(at, groups, func(g shardGroup, at vclock.Time) vclock.Time {
			return c.applyDirs(g.addr, at, ops, g.idx, errs)
		})
	}
	return vclock.Max(latest, done)
}

// applyDirs sends one MDS its share of a batch, the positions idx in batch
// order, as one apply_batch per directory group. An op joins the group of
// its parent directory, and ops that are ancestor and descendant of each
// other — a mkdir, or a setstat, of a directory and a create under it —
// share one group whichever comes first, in batch order inside it
// (dependent). An MDS op reads its path's ancestors, its parent's mode,
// the path itself and, an rmdir, the path's children, and writes the path
// alone: so no request depends on another sent beside it, and the per-op
// results and the final tree are the ones applying idx in order gives.
// The requests go out one after the other from this goroutine, each
// leaving at `at`, as the settles beside a commit wave do: a call is
// charged from the instant it is given, never from the previous one's
// completion, so the MDS serves the groups on as many workers as it has
// free and the share completes when its largest group does. A wave holds
// at most CommitBatchSize ops, so a scan of pairs groups it, in stack
// scratch at that size, and no map is built.
func (c *Client) applyDirs(addr string, at vclock.Time, ops []fsapi.BatchOp, idx []int, errs []error) vclock.Time {
	n := len(idx)
	var scratch [16]int
	buf := scratch[:]
	if 2*n > len(buf) {
		buf = make([]int, 2*n)
	}
	// group[j] names idx[j]'s group by the first j it holds; a merge keeps
	// the smaller name, so every group is named by its first member.
	group, sent := buf[:n], buf[n:n]
	for j := range group {
		group[j] = j
		for k := range j {
			if group[k] == group[j] || !dependent(ops[idx[k]].Path, ops[idx[j]].Path) {
				continue
			}
			from, to := max(group[k], group[j]), min(group[k], group[j])
			for x := range group[:j+1] {
				if group[x] == from {
					group[x] = to
				}
			}
		}
	}
	done := at
	for g := range group {
		if group[g] != g {
			continue
		}
		start := len(sent)
		for j := g; j < n; j++ {
			if group[j] == g {
				sent = append(sent, idx[j])
			}
		}
		done = vclock.Max(done, c.applyTo(addr, at, ops, sent[start:], errs))
	}
	return done
}

// dependent reports whether mutations of the cleaned paths a and b belong
// in one request: they share a parent directory, or one path is an
// ancestor of (or is) the other's parent.
func dependent(a, b string) bool {
	da, _ := namespace.Split(a)
	db, _ := namespace.Split(b)
	return da == db || namespace.IsUnder(da, b) || namespace.IsUnder(db, a)
}
