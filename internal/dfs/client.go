package dfs

import (
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
	// MDSAddr is the metadata server's RPC address (single-MDS
	// deployments; multi-MDS deployments set Shards instead).
	MDSAddr string
	// Shards, when set, routes metadata operations through a
	// subtree-partitioned shard pool instead of MDSAddr: each shard
	// owns a disjoint slice of the namespace (see ShardMap), structural
	// directories are mirrored everywhere, and cross-shard rename/rmdir
	// run two-phase protocols (router.go).
	Shards *ShardMap
	// DataAddrs are the data servers' RPC addresses in stripe order.
	DataAddrs []string
	// Cred is the system user the client acts as.
	Cred fsapi.Cred
	// Model is the latency model.
	Model vclock.LatencyModel
	// DentryCacheCap bounds the client dentry cache (entries). 0 disables
	// caching entirely.
	DentryCacheCap int
	// DentryTTL is the virtual-time validity of a cached dentry. The
	// default 0 disables reuse — the strong-consistency behavior of the
	// paper's BeeGFS baseline, where the client revalidates against the
	// MDS on every access. Pacon's internal commit clients set a long TTL
	// (Pacon owns consistency above the DFS).
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
	// structural path (sharded mode): any mirror answers reads, and a
	// per-client stable pick spreads the load without ping-ponging the
	// shards' dentry working sets.
	mirrorPick int

	mu       sync.Mutex
	dentries map[string]dentry

	lookupRPCs int64
}

type dentry struct {
	stat    fsapi.Stat
	expires vclock.Time
}

// NewClient builds a client over the given transport.
func NewClient(t rpc.Transport, cfg ClientConfig) *Client {
	c := &Client{
		cfg:      cfg,
		caller:   rpc.NewCaller(t, cfg.Model, cfg.Node),
		dentries: make(map[string]dentry),
	}
	if cfg.Shards != nil && cfg.Shards.N() > 0 {
		h := fnv.New32a()
		h.Write([]byte(cfg.Node))
		c.mirrorPick = int(h.Sum32() % uint32(cfg.Shards.N()))
	}
	return c
}

// Cred returns the client's credential.
func (c *Client) Cred() fsapi.Cred { return c.cfg.Cred }

// Pace attaches a virtual-time pacer to this client's RPC caller (see
// vclock.Pacer); id is the client's participant index.
func (c *Client) Pace(p *vclock.Pacer, id int) { c.caller.Pace(p, id) }

// SetTrace tags subsequent DFS RPCs with the span's trace context so
// the MDS handler timings land in the originating op's span.
func (c *Client) SetTrace(span uint64) { c.caller.SetTrace(span) }

// ClearTrace removes the trace context set by SetTrace.
func (c *Client) ClearTrace() { c.caller.ClearTrace() }

// LookupRPCs returns the number of per-component lookup RPCs issued —
// the path-traversal overhead metric.
func (c *Client) LookupRPCs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupRPCs
}

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

func (c *Client) cachePut(p string, st fsapi.Stat, at vclock.Time) {
	if c.cfg.DentryCacheCap <= 0 || c.cfg.DentryTTL <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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

// InvalidateSubtree drops every cached dentry at or under root. Pacon
// calls this on all of a region's DFS clients when a dependent
// operation (rmdir, rename) unlinks a subtree: internal clients run
// with long dentry TTLs (Pacon owns consistency above the DFS), so
// without the fan-out the other nodes' clients would keep serving
// positive Stats for the removed paths until the TTL lapsed.
func (c *Client) InvalidateSubtree(root string) { c.cacheDropSubtree(root) }

func (c *Client) cacheDropSubtree(root string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.dentries {
		if namespace.IsUnder(k, root) {
			delete(c.dentries, k)
		}
	}
}

// mdsFor routes a path's metadata operation to its MDS. In sharded
// mode the shard map owns the routing: structural paths go to this
// client's stable mirror, everything else to the owning shard.
func (c *Client) mdsFor(p string) string {
	if s := c.cfg.Shards; s != nil {
		if s.Structural(p) {
			return s.AddrOf(c.mirrorPick)
		}
		return s.AddrOf(s.Owner(p))
	}
	return c.cfg.MDSAddr
}

// lookupRPC issues one lookup to the MDS.
func (c *Client) lookupRPC(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	c.mu.Lock()
	c.lookupRPCs++
	c.mu.Unlock()
	e := wire.GetEncoder()
	e.String(p)
	done, resp, err := c.caller.Call(c.mdsFor(p), "lookup", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return fsapi.Stat{}, done, err
	}
	st, derr := fsapi.UnmarshalStat(resp)
	if derr != nil {
		return fsapi.Stat{}, done, derr
	}
	return st, done, nil
}

// resolveAncestors walks every proper ancestor of p, charging one lookup
// RPC per uncached component and checking traversal (exec) permission —
// the layer-by-layer path traversal Pacon's batch permissions avoid.
func (c *Client) resolveAncestors(at vclock.Time, p string) (vclock.Time, error) {
	var rerr error
	namespace.VisitAncestors(p, func(anc string) bool {
		if st, ok := c.cacheGet(anc, at); ok {
			if !st.IsDir() {
				rerr = fsapi.WrapPath("traverse", anc, fsapi.ErrNotDir)
				return false
			}
			return true
		}
		st, done, err := c.lookupRPC(at, anc)
		at = done
		if err != nil {
			rerr = err
			return false
		}
		if !st.IsDir() {
			rerr = fsapi.WrapPath("traverse", anc, fsapi.ErrNotDir)
			return false
		}
		if !st.Mode.Allows(c.cfg.Cred.ClassFor(st.UID, st.GID), fsapi.WantExec) {
			rerr = fsapi.WrapPath("traverse", anc, fsapi.ErrPermission)
			return false
		}
		c.cachePut(anc, st, at)
		return true
	})
	return at, rerr
}

// mutateBody builds the standard mutation request frame in a pooled
// encoder; the caller must wire.PutEncoder it once the RPC returned.
func (c *Client) mutateBody(p string, st fsapi.Stat) *wire.Encoder {
	e := wire.GetEncoder()
	e.String(p)
	e.Uint32(c.cfg.Cred.UID)
	e.Uint32(c.cfg.Cred.GID)
	fsapi.EncodeStat(e, st)
	return e
}

// callMutate issues one mutation RPC with the standard body. Mutating a
// structural path in sharded mode fans out to every mirror.
func (c *Client) callMutate(method string, at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	if c.sharded() && c.cfg.Shards.Structural(p) {
		return c.mutateAllShards(method, at, p, st)
	}
	e := c.mutateBody(p, st)
	done, _, err := c.caller.Call(c.mdsFor(p), method, at, e.Bytes())
	wire.PutEncoder(e)
	return done, err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	st := fsapi.NewDirStat(c.cfg.Cred, mode)
	return c.callMutate("mkdir", at, p, st)
}

// Create creates an empty regular file.
func (c *Client) Create(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	st := fsapi.NewFileStat(c.cfg.Cred, mode)
	return c.callMutate("create", at, p, st)
}

// CreateWithStat creates a file carrying a prebuilt stat (used by the
// Pacon commit module to preserve cached metadata exactly).
func (c *Client) CreateWithStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	method := "create"
	if st.IsDir() {
		method = "mkdir"
	}
	return c.callMutate(method, at, p, st)
}

// SetStat replaces an object's metadata.
func (c *Client) SetStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	done, err := c.callMutate("setstat", at, p, st)
	if err == nil {
		c.cacheDrop(p)
	}
	return done, err
}

// Stat resolves a path's metadata (traversal plus final lookup).
func (c *Client) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return fsapi.Stat{}, at, err
	}
	if st, ok := c.cacheGet(p, at); ok {
		return st, at, nil
	}
	st, done, err := c.lookupRPC(at, p)
	if err != nil {
		return fsapi.Stat{}, done, err
	}
	c.cachePut(p, st, done)
	return st, done, nil
}

// StatFresh stats p bypassing the positive dentry cache for the final
// component: the answer always comes from the MDS, and refreshes the
// cached dentry. Pacon's cache-miss loads use this — a miss-load's
// result becomes the region's primary copy, so it must reflect the
// authoritative backup state, not a dentry snapshot that may predate
// any number of asynchronously committed updates (a stale size here
// does not merely lag: it gets installed in the region cache as truth
// after the real entry was evicted, silently shadowing committed
// writes).
func (c *Client) StatFresh(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return fsapi.Stat{}, at, err
	}
	st, done, err := c.lookupRPC(at, p)
	if err != nil {
		c.cacheDrop(p)
		return fsapi.Stat{}, done, err
	}
	c.cachePut(p, st, done)
	return st, done, nil
}

// Remove unlinks a file (metadata; chunks are dropped separately by
// RemoveData for files that had content).
func (c *Client) Remove(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	done, err := c.callMutate("remove", at, p, fsapi.Stat{})
	if err == nil {
		c.cacheDrop(p)
	}
	return done, err
}

// Rmdir removes an empty directory. In sharded mode a directory that
// spans shards (mirrored, or holding delegations) removes through the
// prepare/commit vote so no shard unlinks a mirror the others keep.
func (c *Client) Rmdir(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return at, err
	}
	if c.sharded() {
		if targets := c.shardTargets(p); len(targets) > 1 {
			done, err := c.shardedRmdir(at, p, targets)
			if err == nil {
				c.cacheDrop(p)
			}
			return done, err
		}
	}
	done, err := c.callMutate("rmdir", at, p, fsapi.Stat{})
	if err == nil {
		c.cacheDrop(p)
	}
	return done, err
}

// RmTree removes a directory recursively, returning the removed paths.
func (c *Client) RmTree(at vclock.Time, p string) ([]string, vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return nil, at, err
	}
	if c.sharded() {
		if targets := c.shardTargets(p); len(targets) > 1 {
			return c.shardedRmTree(at, p, targets)
		}
	}
	e := wire.GetEncoder()
	e.String(p)
	e.Uint32(c.cfg.Cred.UID)
	e.Uint32(c.cfg.Cred.GID)
	done, resp, err := c.caller.Call(c.mdsFor(p), "rmtree", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, done, err
	}
	d := wire.NewDecoder(resp)
	n := d.Uvarint()
	removed := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		removed = append(removed, d.String())
	}
	if derr := d.Finish(); derr != nil {
		return nil, done, derr
	}
	c.cacheDropSubtree(p)
	return removed, done, nil
}

// Rename moves a file or subtree. Data chunks are keyed by path, so a
// renamed file's bytes are re-homed too.
func (c *Client) Rename(at vclock.Time, src, dst string) (vclock.Time, error) {
	src, dst = namespace.Clean(src), namespace.Clean(dst)
	at, err := c.resolveAncestors(at, src)
	if err != nil {
		return at, err
	}
	if at, err = c.resolveAncestors(at, dst); err != nil {
		return at, err
	}
	if c.sharded() {
		done, err := c.shardedRename(at, src, dst)
		at = done
		if err != nil {
			return at, err
		}
	} else {
		e := wire.GetEncoder()
		e.String(src)
		e.String(dst)
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
		done, _, err := c.caller.Call(c.mdsFor(src), "rename", at, e.Bytes())
		wire.PutEncoder(e)
		at = done
		if err != nil {
			return at, err
		}
	}
	c.cacheDropSubtree(src)
	// Re-home data chunks (they are keyed by path): walk the moved
	// subtree and copy each file's bytes. Renames are rare in the
	// workloads; a copy keeps the data servers' layout simple.
	if len(c.cfg.DataAddrs) > 0 {
		at = c.moveData(at, src, dst)
	}
	return at, nil
}

// moveData recursively copies the chunks of every file under the moved
// subtree from its old path to its new one.
func (c *Client) moveData(at vclock.Time, src, dst string) vclock.Time {
	st, done, err := c.Stat(at, dst)
	at = done
	if err != nil {
		return at
	}
	if st.IsDir() {
		ents, done, err := c.Readdir(at, dst)
		at = done
		if err != nil {
			return at
		}
		for _, ent := range ents {
			at = c.moveData(at, namespace.Join(src, ent.Name), namespace.Join(dst, ent.Name))
		}
		return at
	}
	if st.Size == 0 {
		return at
	}
	data, done, err := c.readAtPath(at, src, st.Size)
	at = done
	if err != nil || len(data) == 0 {
		return at
	}
	if done, werr := c.WriteAt(at, dst, 0, data); werr == nil {
		at = done
	}
	if done, derr := c.RemoveData(at, src); derr == nil {
		at = done
	}
	return at
}

// readAtPath reads a file's chunks by path without consulting its
// metadata (used during rename, when the metadata already moved).
func (c *Client) readAtPath(at vclock.Time, p string, size int64) ([]byte, vclock.Time, error) {
	out := make([]byte, 0, size)
	for int64(len(out)) < size {
		pos := int64(len(out))
		chunk := pos / ChunkSize
		inOff := int(pos % ChunkSize)
		want := int(size - pos)
		if room := ChunkSize - inOff; want > room {
			want = room
		}
		e := wire.GetEncoder()
		e.String(p)
		e.Int64(chunk)
		e.Uint32(uint32(inOff))
		e.Uint32(uint32(want))
		done, resp, err := c.caller.Call(c.serverFor(p, chunk), "read", at, e.Bytes())
		wire.PutEncoder(e)
		at = done
		if err != nil {
			return nil, at, err
		}
		d := wire.NewDecoder(resp)
		part := d.Blob()
		if derr := d.Finish(); derr != nil {
			return nil, at, derr
		}
		if len(part) < want {
			part = append(part, make([]byte, want-len(part))...)
		}
		out = append(out, part...)
	}
	return out, at, nil
}

// Readdir lists a directory. In sharded mode a directory that spans
// shards merges the per-shard listings.
func (c *Client) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	p = namespace.Clean(p)
	at, err := c.resolveAncestors(at, p)
	if err != nil {
		return nil, at, err
	}
	if c.sharded() {
		if targets := c.shardTargets(p); len(targets) > 1 {
			return c.shardedReaddir(at, p, targets)
		}
	}
	e := wire.GetEncoder()
	e.String(p)
	done, resp, err := c.caller.Call(c.mdsFor(p), "readdir", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, done, err
	}
	d := wire.NewDecoder(resp)
	n := d.Uvarint()
	ents := make([]fsapi.DirEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		ents = append(ents, fsapi.DirEntry{Name: d.String(), Type: fsapi.FileType(d.Byte())})
	}
	if derr := d.Finish(); derr != nil {
		return nil, done, derr
	}
	return ents, done, nil
}

// serverFor maps a chunk of a path to its data server, striping
// consecutive chunks round-robin from a per-file starting server.
func (c *Client) serverFor(p string, chunk int64) string {
	h := fnv.New32a()
	h.Write([]byte(p))
	i := (int64(h.Sum32()) + chunk) % int64(len(c.cfg.DataAddrs))
	return c.cfg.DataAddrs[i]
}

// WriteAt stripes data across the data servers and bumps the file size
// at the MDS if the write extends it.
func (c *Client) WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error) {
	p = namespace.Clean(p)
	if len(c.cfg.DataAddrs) == 0 {
		return at, fmt.Errorf("dfs: no data servers configured")
	}
	st, at, err := c.Stat(at, p)
	if err != nil {
		return at, err
	}
	if st.IsDir() {
		return at, fsapi.WrapPath("write", p, fsapi.ErrIsDir)
	}
	for n := 0; n < len(data); {
		chunk := (off + int64(n)) / ChunkSize
		inOff := int((off + int64(n)) % ChunkSize)
		room := ChunkSize - inOff
		if room > len(data)-n {
			room = len(data) - n
		}
		e := wire.GetEncoder()
		e.String(p)
		e.Int64(chunk)
		e.Uint32(uint32(inOff))
		e.Blob(data[n : n+room])
		done, _, err := c.caller.Call(c.serverFor(p, chunk), "write", at, e.Bytes())
		wire.PutEncoder(e)
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

// ReadAt reads up to n bytes from the striped chunks.
func (c *Client) ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error) {
	p = namespace.Clean(p)
	if len(c.cfg.DataAddrs) == 0 {
		return nil, at, fmt.Errorf("dfs: no data servers configured")
	}
	st, at, err := c.Stat(at, p)
	if err != nil {
		return nil, at, err
	}
	if off >= st.Size {
		return nil, at, nil
	}
	if max := st.Size - off; int64(n) > max {
		n = int(max)
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		pos := off + int64(len(out))
		chunk := pos / ChunkSize
		inOff := int(pos % ChunkSize)
		want := n - len(out)
		if room := ChunkSize - inOff; want > room {
			want = room
		}
		e := wire.GetEncoder()
		e.String(p)
		e.Int64(chunk)
		e.Uint32(uint32(inOff))
		e.Uint32(uint32(want))
		done, resp, err := c.caller.Call(c.serverFor(p, chunk), "read", at, e.Bytes())
		wire.PutEncoder(e)
		if err != nil {
			return nil, done, err
		}
		at = done
		d := wire.NewDecoder(resp)
		part := d.Blob()
		if derr := d.Finish(); derr != nil {
			return nil, at, derr
		}
		if len(part) < want {
			// Sparse region: zero-fill to the requested length.
			part = append(part, make([]byte, want-len(part))...)
		}
		out = append(out, part...)
	}
	return out, at, nil
}

// Fsync flushes a file's chunks (one device sync on its first stripe
// server).
func (c *Client) Fsync(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	if len(c.cfg.DataAddrs) == 0 {
		return at, nil
	}
	done, _, err := c.caller.Call(c.serverFor(p, 0), "sync", at, nil)
	return done, err
}

// RemoveData drops a file's chunks from every data server.
func (c *Client) RemoveData(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	latest := at
	for _, addr := range c.cfg.DataAddrs {
		e := wire.GetEncoder()
		e.String(p)
		done, _, err := c.caller.Call(addr, "drop", at, e.Bytes())
		wire.PutEncoder(e)
		if err != nil {
			return done, err
		}
		latest = vclock.Max(latest, done)
	}
	return latest, nil
}

// StatBatch resolves a set of paths in as few MDS round trips as
// possible: one "stat_batch" RPC per metadata server touched. It has
// StatFresh's semantics per path — the final component always comes
// from the MDS (never a dentry snapshot) and refreshes the dentry
// cache — because Pacon's bulk miss-loads install the results as the
// region's primary copies. Ancestor resolution still happens per path.
// The returned slice has one entry per path; a non-nil batch error
// means the whole batch's disposition is unknown (transport failure)
// and the caller should fall back to singleton StatFresh calls.
func (c *Client) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	if len(paths) == 0 {
		return nil, at, nil
	}
	out := make([]fsapi.StatResult, len(paths))
	cleaned := make([]string, len(paths))
	send := make([]int, 0, len(paths))
	for i, p := range paths {
		cleaned[i] = namespace.Clean(p)
		done, err := c.resolveAncestors(at, cleaned[i])
		at = done
		if err != nil {
			out[i].Err = err
			continue
		}
		send = append(send, i)
	}
	if len(send) == 0 {
		return out, at, nil
	}
	groups := make(map[string][]int)
	var order []string
	for _, i := range send {
		addr := c.mdsFor(cleaned[i])
		if _, ok := groups[addr]; !ok {
			order = append(order, addr)
		}
		groups[addr] = append(groups[addr], i)
	}
	// One RPC per MDS, all issued at the same virtual instant; the
	// batch completes when the slowest group does. Multiple groups fan
	// out concurrently — each fills a disjoint slice of out.
	statGroup := func(addr string, idxs []int) (vclock.Time, error) {
		c.mu.Lock()
		c.lookupRPCs += int64(len(idxs))
		c.mu.Unlock()
		e := wire.GetEncoder()
		ps := make([]string, len(idxs))
		for j, i := range idxs {
			ps[j] = cleaned[i]
		}
		e.Strings(ps)
		done, resp, err := c.caller.Call(addr, "stat_batch", at, e.Bytes())
		wire.PutEncoder(e)
		if err != nil {
			return done, err
		}
		d := wire.NewDecoder(resp)
		n := d.Uvarint()
		if n != uint64(len(idxs)) {
			return done, fmt.Errorf("dfs: stat_batch returned %d results for %d paths", n, len(idxs))
		}
		for _, i := range idxs {
			code := d.Byte()
			if code == fsapi.CodeOK {
				out[i].Stat = fsapi.DecodeStat(d)
				if d.Err() == nil {
					c.cachePut(cleaned[i], out[i].Stat, done)
				}
			} else {
				detail := d.String()
				out[i].Err = fsapi.ErrOf(code, detail)
				c.cacheDrop(cleaned[i])
			}
		}
		return done, d.Finish()
	}
	latest := at
	if len(order) == 1 {
		done, err := statGroup(order[0], groups[order[0]])
		if err != nil {
			return nil, done, err
		}
		latest = vclock.Max(latest, done)
	} else {
		dones := make([]vclock.Time, len(order))
		gerrs := make([]error, len(order))
		var wg sync.WaitGroup
		for gi, addr := range order {
			wg.Add(1)
			go func(gi int, addr string) {
				defer wg.Done()
				dones[gi], gerrs[gi] = statGroup(addr, groups[addr])
			}(gi, addr)
		}
		wg.Wait()
		for gi := range order {
			latest = vclock.Max(latest, dones[gi])
			if gerrs[gi] != nil {
				return nil, latest, gerrs[gi]
			}
		}
	}
	return out, latest, nil
}

// ApplyBatch applies a set of independent-path mutations in as few MDS
// round trips as possible: one RPC per metadata server touched, instead
// of one per op. Ancestor resolution still happens per op (the cached
// dentries make it nearly free for the commit module's long-TTL
// clients). The returned slice has one entry per op — nil for success —
// and a non-nil batch error means the whole batch's disposition is
// unknown (transport failure) and the caller should fall back to
// singleton application.
func (c *Client) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	if len(ops) == 0 {
		return nil, at, nil
	}
	errs := make([]error, len(ops))
	// Resolve ancestors first (serially — each resolve advances the
	// virtual clock like any client-side traversal would).
	send := make([]int, 0, len(ops))
	for i := range ops {
		ops[i].Path = namespace.Clean(ops[i].Path)
		done, err := c.resolveAncestors(at, ops[i].Path)
		at = done
		if err != nil {
			errs[i] = err
			continue
		}
		send = append(send, i)
	}
	if len(send) == 0 {
		return errs, at, nil
	}
	// Group the survivors by owning MDS, preserving order within a
	// group. Ops on structural (mirrored) paths divert to the
	// all-shards path — rare, since Pacon mutates workspace-interior
	// paths, not the workspace skeleton.
	groups := make(map[string][]int)
	var order []string
	var structural []int
	for _, i := range send {
		if c.sharded() && c.cfg.Shards.Structural(ops[i].Path) {
			structural = append(structural, i)
			continue
		}
		addr := c.mdsFor(ops[i].Path)
		if _, ok := groups[addr]; !ok {
			order = append(order, addr)
		}
		groups[addr] = append(groups[addr], i)
	}
	latest := at
	for _, i := range structural {
		done, err := c.applyOpAllShards(at, ops[i])
		latest = vclock.Max(latest, done)
		errs[i] = err
	}
	// One RPC per MDS, all issued at the same virtual instant; the batch
	// completes when the slowest group does. Multiple groups fan out
	// concurrently — each fills a disjoint slice of errs.
	applyGroup := func(addr string, idxs []int) (vclock.Time, error) {
		e := wire.GetEncoder()
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
		e.Uvarint(uint64(len(idxs)))
		for _, i := range idxs {
			op := ops[i]
			e.Byte(byte(op.Kind))
			e.Bool(op.IfExists)
			e.String(op.Path)
			fsapi.EncodeStat(e, op.Stat)
		}
		done, resp, err := c.caller.Call(addr, "apply_batch", at, e.Bytes())
		wire.PutEncoder(e)
		if err != nil {
			return done, err
		}
		d := wire.NewDecoder(resp)
		n := d.Uvarint()
		if n != uint64(len(idxs)) {
			return done, fmt.Errorf("dfs: apply_batch returned %d results for %d ops", n, len(idxs))
		}
		for _, i := range idxs {
			code := d.Byte()
			detail := d.String()
			errs[i] = fsapi.ErrOf(code, detail)
			if errs[i] == nil {
				switch ops[i].Kind {
				case fsapi.BatchSetStat, fsapi.BatchRemove:
					c.cacheDrop(ops[i].Path)
				}
			}
		}
		return done, d.Finish()
	}
	if len(order) == 1 {
		done, err := applyGroup(order[0], groups[order[0]])
		if err != nil {
			return nil, done, err
		}
		latest = vclock.Max(latest, done)
	} else if len(order) > 1 {
		dones := make([]vclock.Time, len(order))
		gerrs := make([]error, len(order))
		var wg sync.WaitGroup
		for gi, addr := range order {
			wg.Add(1)
			go func(gi int, addr string) {
				defer wg.Done()
				dones[gi], gerrs[gi] = applyGroup(addr, groups[addr])
			}(gi, addr)
		}
		wg.Wait()
		for gi := range order {
			latest = vclock.Max(latest, dones[gi])
			if gerrs[gi] != nil {
				return nil, latest, gerrs[gi]
			}
		}
	}
	return errs, latest, nil
}
