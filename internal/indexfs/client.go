package indexfs

import (
	"sort"
	"sync"

	"pacon/internal/fsapi"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// ClientConfig configures one IndexFS client process.
type ClientConfig struct {
	// Node the client runs on.
	Node string
	// ServerAddrs lists every metadata server; directories map to
	// servers by hashing their directory ID.
	ServerAddrs []string
	// Cred is the system user.
	Cred fsapi.Cred
	// Model is the latency model.
	Model vclock.LatencyModel
	// LeaseCacheCap bounds the client's dentry lease cache (entries);
	// 0 disables caching. IndexFS's "stateless caching" keeps this
	// bounded and small.
	LeaseCacheCap int
	// Bulk enables bulk insertion (BatchFS mode): creates are buffered
	// locally and merged into the owning servers in batches.
	Bulk bool
	// BulkBatch is the flush threshold in buffered creates (default 128).
	BulkBatch int
}

// Client is an IndexFS client: it resolves paths against the partitioned
// servers with lease-cached directory entries.
type Client struct {
	cfg    ClientConfig
	caller *rpc.Caller

	mu     sync.Mutex
	leases map[string]lease

	pending map[string][]bulkRow // server addr -> buffered creates (bulk mode)
	nbuf    int
}

type lease struct {
	stat    fsapi.Stat
	child   DirID
	expires vclock.Time
}

// NewClient builds a client over the transport.
func NewClient(t rpc.Transport, cfg ClientConfig) *Client {
	if cfg.BulkBatch <= 0 {
		cfg.BulkBatch = 128
	}
	return &Client{
		cfg:     cfg,
		caller:  rpc.NewCaller(t, cfg.Model, cfg.Node),
		leases:  make(map[string]lease),
		pending: make(map[string][]bulkRow),
	}
}

// Pace attaches a virtual-time pacer (see vclock.Pacer).
func (c *Client) Pace(p *vclock.Pacer, id int) { c.caller.Pace(p, id) }

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func strhash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// serverFor routes one directory entry to its owner. Directories are
// fully split (GIGA+ at maximum split level, which IndexFS inherits):
// a directory's entries spread across every server by name hash, so a
// single hot directory — the paper's mdtest shared parent — scales with
// the server count instead of bottlenecking on one owner.
func (c *Client) serverFor(dir DirID, name string) string {
	return c.cfg.ServerAddrs[mix(dir^strhash(name))%uint64(len(c.cfg.ServerAddrs))]
}

func (c *Client) leaseGet(p string, at vclock.Time) (lease, bool) {
	if c.cfg.LeaseCacheCap <= 0 {
		return lease{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[p]
	if !ok || at > l.expires {
		return lease{}, false
	}
	return l, true
}

func (c *Client) leasePut(p string, l lease) {
	if c.cfg.LeaseCacheCap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.leases) >= c.cfg.LeaseCacheCap {
		for k := range c.leases {
			delete(c.leases, k)
			break
		}
	}
	c.leases[p] = l
}

func (c *Client) leaseDrop(p string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.leases, p)
}

// lookupEntry fetches (dir, name) from its owner, caching the lease
// under fullPath.
func (c *Client) lookupEntry(at vclock.Time, dir DirID, name, fullPath string) (lease, vclock.Time, error) {
	e := wire.NewEncoder(len(name) + 12)
	e.Uint64(dir)
	e.String(name)
	done, resp, err := c.caller.Call(c.serverFor(dir, name), "lookup", at, e.Bytes())
	if err != nil {
		return lease{}, done, err
	}
	d := wire.NewDecoder(resp)
	st := fsapi.DecodeStat(d)
	child := d.Uvarint()
	ttl := vclock.Duration(d.Int64())
	if derr := d.Finish(); derr != nil {
		return lease{}, done, derr
	}
	l := lease{stat: st, child: child, expires: done.Add(ttl)}
	c.leasePut(fullPath, l)
	return l, done, nil
}

// resolveDir walks p's components to its directory ID, charging one
// lookup RPC per lease miss and checking traversal permission.
func (c *Client) resolveDir(at vclock.Time, p string) (DirID, vclock.Time, error) {
	cur := RootDirID
	full := ""
	for _, comp := range namespace.Components(p) {
		full += "/" + comp
		var l lease
		if cached, ok := c.leaseGet(full, at); ok {
			l = cached
		} else {
			var err error
			l, at, err = c.lookupEntry(at, cur, comp, full)
			if err != nil {
				return 0, at, fsapi.WrapPath("traverse", full, err)
			}
		}
		if !l.stat.IsDir() {
			return 0, at, fsapi.WrapPath("traverse", full, fsapi.ErrNotDir)
		}
		if !l.stat.Mode.Allows(c.cfg.Cred.ClassFor(l.stat.UID, l.stat.GID), fsapi.WantExec) {
			return 0, at, fsapi.WrapPath("traverse", full, fsapi.ErrPermission)
		}
		cur = l.child
	}
	return cur, at, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	p = namespace.Clean(p)
	dir, name := namespace.Split(p)
	parent, at, err := c.resolveDir(at, dir)
	if err != nil {
		return at, err
	}
	st := fsapi.NewDirStat(c.cfg.Cred, mode)
	e := wire.NewEncoder(len(name) + 96)
	e.Uint64(parent)
	e.String(name)
	fsapi.EncodeStat(e, st)
	done, resp, err := c.caller.Call(c.serverFor(parent, name), "mkdir", at, e.Bytes())
	if err != nil {
		return done, fsapi.WrapPath("mkdir", p, err)
	}
	d := wire.NewDecoder(resp)
	child := d.Uvarint()
	if derr := d.Finish(); derr != nil {
		return done, derr
	}
	c.leasePut(p, lease{stat: st, child: child, expires: done.Add(vclock.Duration(1 << 40))})
	return done, nil
}

// Create creates an empty file (buffered locally in bulk mode).
func (c *Client) Create(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error) {
	return c.CreateWithStat(at, p, fsapi.NewFileStat(c.cfg.Cred, mode))
}

// CreateWithStat creates a file with a caller-built stat.
func (c *Client) CreateWithStat(at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	p = namespace.Clean(p)
	dir, name := namespace.Split(p)
	parent, at, err := c.resolveDir(at, dir)
	if err != nil {
		return at, err
	}
	if c.cfg.Bulk {
		// Bulk insertion: buffer the row locally; the only cost now is
		// client-side marshaling.
		at = at.Add(c.cfg.Model.ClientOverhead)
		addr := c.serverFor(parent, name)
		c.mu.Lock()
		c.pending[addr] = append(c.pending[addr], bulkRow{dir: parent, name: name, row: row{st: st}})
		c.nbuf++
		flush := c.nbuf >= c.cfg.BulkBatch
		c.mu.Unlock()
		if flush {
			return c.FlushBulk(at)
		}
		return at, nil
	}
	e := wire.NewEncoder(len(name) + 96)
	e.Uint64(parent)
	e.String(name)
	fsapi.EncodeStat(e, st)
	done, _, err := c.caller.Call(c.serverFor(parent, name), "create", at, e.Bytes())
	if err != nil {
		return done, fsapi.WrapPath("create", p, err)
	}
	return done, nil
}

// FlushBulk pushes buffered creates to their owning servers, one batch
// per server.
func (c *Client) FlushBulk(at vclock.Time) (vclock.Time, error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[string][]bulkRow)
	c.nbuf = 0
	c.mu.Unlock()

	latest := at
	for addr, rows := range pending {
		e := wire.NewEncoder(64 * len(rows))
		e.Uvarint(uint64(len(rows)))
		for _, r := range rows {
			encodeBulkRow(e, r)
		}
		done, _, err := c.caller.Call(addr, "bulk", at, e.Bytes())
		if err != nil {
			return done, err
		}
		latest = vclock.Max(latest, done)
	}
	return latest, nil
}

// Stat resolves a path's metadata.
func (c *Client) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	p = namespace.Clean(p)
	if p == "/" {
		return fsapi.NewDirStat(fsapi.Cred{}, 0o777), at, nil
	}
	dir, name := namespace.Split(p)
	parent, at, err := c.resolveDir(at, dir)
	if err != nil {
		return fsapi.Stat{}, at, err
	}
	if l, ok := c.leaseGet(p, at); ok {
		return l.stat, at, nil
	}
	l, done, err := c.lookupEntry(at, parent, name, p)
	if err != nil {
		return fsapi.Stat{}, done, fsapi.WrapPath("stat", p, err)
	}
	return l.stat, done, nil
}

// Remove unlinks a file.
func (c *Client) Remove(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	dir, name := namespace.Split(p)
	parent, at, err := c.resolveDir(at, dir)
	if err != nil {
		return at, err
	}
	e := wire.NewEncoder(len(name) + 12)
	e.Uint64(parent)
	e.String(name)
	done, _, err := c.caller.Call(c.serverFor(parent, name), "remove", at, e.Bytes())
	if err != nil {
		return done, fsapi.WrapPath("remove", p, err)
	}
	c.leaseDrop(p)
	return done, nil
}

// Rmdir removes an empty directory: an emptiness check on the child's
// owner followed by the row delete on the parent's owner.
func (c *Client) Rmdir(at vclock.Time, p string) (vclock.Time, error) {
	p = namespace.Clean(p)
	dir, name := namespace.Split(p)
	parent, at, err := c.resolveDir(at, dir)
	if err != nil {
		return at, err
	}
	var self DirID
	if l, ok := c.leaseGet(p, at); ok {
		self = l.child
	} else {
		l, done, err := c.lookupEntry(at, parent, name, p)
		at = done
		if err != nil {
			return at, fsapi.WrapPath("rmdir", p, err)
		}
		if !l.stat.IsDir() {
			return at, fsapi.WrapPath("rmdir", p, fsapi.ErrNotDir)
		}
		self = l.child
	}
	// Split directories keep rows on every server: emptiness is the
	// conjunction across the cluster.
	for _, addr := range c.cfg.ServerAddrs {
		e := wire.NewEncoder(9)
		e.Uint64(self)
		done, resp, err := c.caller.Call(addr, "empty", at, e.Bytes())
		at = done
		if err != nil {
			return at, err
		}
		if !wire.NewDecoder(resp).Bool() {
			return at, fsapi.WrapPath("rmdir", p, fsapi.ErrNotEmpty)
		}
	}
	e := wire.NewEncoder(len(name) + 12)
	e.Uint64(parent)
	e.String(name)
	done, _, err := c.caller.Call(c.serverFor(parent, name), "removedir", at, e.Bytes())
	if err != nil {
		return done, fsapi.WrapPath("rmdir", p, err)
	}
	c.leaseDrop(p)
	return done, nil
}

// Readdir lists a directory.
func (c *Client) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	p = namespace.Clean(p)
	dir, at, err := c.resolveDir(at, p)
	if err != nil {
		return nil, at, err
	}
	// Gather the split directory's rows from every server and merge.
	var ents []fsapi.DirEntry
	for _, addr := range c.cfg.ServerAddrs {
		e := wire.NewEncoder(9)
		e.Uint64(dir)
		done, resp, err := c.caller.Call(addr, "readdir", at, e.Bytes())
		at = done
		if err != nil {
			return nil, at, fsapi.WrapPath("readdir", p, err)
		}
		d := wire.NewDecoder(resp)
		for n := d.Count(); n > 0 && d.Err() == nil; n-- {
			ents = append(ents, fsapi.DirEntry{Name: d.String(), Type: fsapi.FileType(d.Byte())})
		}
		if derr := d.Finish(); derr != nil {
			return nil, at, derr
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, at, nil
}
