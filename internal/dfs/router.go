package dfs

import (
	"sync/atomic"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Client-side shard routing. With ClientConfig.Shards set, the client
// fronts a pool of independent MDS shards (each with its own namespace
// tree and service pool) instead of one MDS:
//
//   - single-subtree operations route to the owning shard (ShardMap);
//   - structural (mirrored) mutations fan out to every shard;
//   - directory-wide operations (readdir, rmdir, rmtree) fan out to the
//     owner plus any shard holding a delegation under the directory,
//     and merge;
//   - cross-shard rename runs the two-phase xfer protocol (shardrpc.go).
//
// protoSeq numbers the two-phase protocols; ids only need to be unique
// among concurrently active intents, so a process-wide counter serves
// every client.
var protoSeq atomic.Uint64

// sharded reports whether this client routes through a shard map with
// real fan-out (a 1-shard map behaves exactly like a single MDS).
func (c *Client) sharded() bool {
	return c.cfg.Shards != nil && c.cfg.Shards.N() > 1
}

// shardTargets returns the shard addresses a directory-wide operation
// on p must touch: every shard for structural paths, otherwise the
// owner plus any shards holding delegations under p. len==1 means the
// operation degenerates to the single-shard path.
func (c *Client) shardTargets(p string) []string {
	s := c.cfg.Shards
	if s.Structural(p) {
		return s.Addrs()
	}
	owner := s.Owner(p)
	under := s.DelegationShardsUnder(p)
	out := []string{s.AddrOf(owner)}
	for _, sh := range under {
		if sh != owner {
			out = append(out, s.AddrOf(sh))
		}
	}
	return out
}

// mutateAllShards applies one mutation to every shard's mirror of a
// structural path. All calls are issued at the same virtual instant; the
// mutation completes when the slowest mirror does. Every mirror is
// attempted even after an error, keeping the mirrors lockstep; the
// first error is reported.
func (c *Client) mutateAllShards(method string, at vclock.Time, p string, st fsapi.Stat) (vclock.Time, error) {
	latest := at
	var first error
	for _, addr := range c.cfg.Shards.Addrs() {
		e := c.mutateBody(p, st)
		done, _, err := c.caller.Call(addr, method, at, e.Bytes())
		wire.PutEncoder(e)
		latest = vclock.Max(latest, done)
		if err != nil && first == nil {
			first = err
		}
	}
	return latest, first
}

// applyOpAllShards mirrors one batched mutation of a structural path to
// every shard via a one-op apply_batch (preserving IfExists semantics).
func (c *Client) applyOpAllShards(at vclock.Time, op fsapi.BatchOp) (vclock.Time, error) {
	latest := at
	var first error
	for _, addr := range c.cfg.Shards.Addrs() {
		e := wire.GetEncoder()
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
		e.Uvarint(1)
		e.Byte(byte(op.Kind))
		e.Bool(op.IfExists)
		e.String(op.Path)
		fsapi.EncodeStat(e, op.Stat)
		done, resp, err := c.caller.Call(addr, "apply_batch", at, e.Bytes())
		wire.PutEncoder(e)
		latest = vclock.Max(latest, done)
		if err == nil {
			d := wire.NewDecoder(resp)
			if d.Uvarint() == 1 {
				code := d.Byte()
				detail := d.String()
				err = fsapi.ErrOf(code, detail)
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return latest, first
}

// shardedRename implements Rename over the shard pool. Same-shard moves
// are a single "rename" RPC to the owner; cross-shard moves run the
// two-phase xfer protocol. Structural endpoints and subtrees spanning a
// delegation boundary are refused — moving a mirrored directory (or
// silently re-homing a pinned subtree) has no atomic implementation.
func (c *Client) shardedRename(at vclock.Time, src, dst string) (vclock.Time, error) {
	s := c.cfg.Shards
	if s.Structural(src) || s.Structural(dst) {
		return at, fsapi.WrapPath("rename", src, fsapi.ErrPermission)
	}
	if s.CrossesDelegation(src) {
		return at, fsapi.WrapPath("rename", src, fsapi.ErrPermission)
	}
	srcSh, dstSh := s.Owner(src), s.Owner(dst)
	if srcSh == dstSh {
		e := wire.GetEncoder()
		e.String(src)
		e.String(dst)
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
		done, _, err := c.caller.Call(s.AddrOf(srcSh), "rename", at, e.Bytes())
		wire.PutEncoder(e)
		return done, err
	}
	srcAddr, dstAddr := s.AddrOf(srcSh), s.AddrOf(dstSh)
	id := protoSeq.Add(1)

	// Phase 1: prepare on the source — intent logged, subtree exported.
	e := wire.GetEncoder()
	e.String(src)
	e.Uint32(c.cfg.Cred.UID)
	e.Uint32(c.cfg.Cred.GID)
	e.Uvarint(id)
	at, resp, err := c.caller.Call(srcAddr, "xfer_prepare", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return at, err
	}
	d := wire.NewDecoder(resp)
	n := d.Count()
	rels := make([]string, 0, n)
	stats := make([]fsapi.Stat, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		rels = append(rels, d.String())
		stats = append(stats, fsapi.DecodeStat(d))
	}
	if derr := d.Finish(); derr != nil {
		return c.releaseIntent(at, []string{srcAddr}, src, id), derr
	}

	// Phase 2: apply on the destination. Failure aborts the source
	// intent — the subtree never moved.
	e = wire.GetEncoder()
	e.String(dst)
	e.Uint32(c.cfg.Cred.UID)
	e.Uint32(c.cfg.Cred.GID)
	e.Uvarint(uint64(n))
	for i := range rels {
		e.String(rels[i])
		fsapi.EncodeStat(e, stats[i])
	}
	at, _, err = c.caller.Call(dstAddr, "xfer_apply", at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return c.releaseIntent(at, []string{srcAddr}, src, id), err
	}

	// Phase 3: finalize on the source — unlink and release the intent.
	// Finalize is idempotent, so a transient failure is retried once;
	// if the source shard stays unreachable its volatile intent log
	// clears on recovery (implicit abort of its side — see DESIGN.md §10
	// for the recovery rules).
	for attempt := 0; ; attempt++ {
		e = wire.GetEncoder()
		e.String(src)
		e.Uvarint(id)
		done, _, ferr := c.caller.Call(srcAddr, "xfer_finalize", at, e.Bytes())
		wire.PutEncoder(e)
		at = done
		if ferr == nil {
			break
		}
		if attempt >= 1 {
			return at, ferr
		}
	}
	return at, nil
}

// releaseIntent drops intent id rooted at p on each shard in addrs, one
// after the other from `at`, without mutating — the abort step of a
// cross-shard rename or rmdir and the closing bracket of rmtree.
// Best-effort: an unreachable shard clears its intents on recovery.
func (c *Client) releaseIntent(at vclock.Time, addrs []string, p string, id uint64) vclock.Time {
	for _, addr := range addrs {
		e := wire.GetEncoder()
		e.String(p)
		e.Uvarint(id)
		done, _, err := c.caller.Call(addr, "intent_del", at, e.Bytes())
		wire.PutEncoder(e)
		if err == nil {
			at = vclock.Max(at, done)
		}
	}
	return at
}

// shardedRmdir removes an empty directory that spans shards (mirrored,
// or holding delegations) with a prepare/commit round: every involved
// shard votes (locally a dir, locally empty) and logs an intent
// blocking creates under it; unanimous yes commits the unlink
// everywhere, any no aborts and releases the intents.
func (c *Client) shardedRmdir(at vclock.Time, p string, targets []string) (vclock.Time, error) {
	id := protoSeq.Add(1)
	latest := at
	prepared := make([]string, 0, len(targets))
	var first error
	for _, addr := range targets {
		e := wire.GetEncoder()
		e.String(p)
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
		e.Uvarint(id)
		done, _, err := c.caller.Call(addr, "rmdir_prepare", at, e.Bytes())
		wire.PutEncoder(e)
		latest = vclock.Max(latest, done)
		if err != nil {
			first = err
			break
		}
		prepared = append(prepared, addr)
	}
	if first != nil {
		return c.releaseIntent(latest, prepared, p, id), first
	}
	commitAt := latest
	for _, addr := range targets {
		e := wire.GetEncoder()
		e.String(p)
		e.Uvarint(id)
		done, _, err := c.caller.Call(addr, "rmdir_commit", commitAt, e.Bytes())
		wire.PutEncoder(e)
		latest = vclock.Max(latest, done)
		if err != nil && first == nil {
			first = err
		}
	}
	return latest, first
}

// shardedRmTree sweeps a subtree off every involved shard. Intents
// bracket the sweeps so a racing create into the doomed subtree fails
// with ErrStale instead of landing on a shard that was already swept.
func (c *Client) shardedRmTree(at vclock.Time, p string, targets []string) ([]string, vclock.Time, error) {
	id := protoSeq.Add(1)
	latest := at
	marked := make([]string, 0, len(targets))
	var first error
	for _, addr := range targets {
		e := wire.GetEncoder()
		e.String(p)
		e.Uvarint(id)
		done, _, err := c.caller.Call(addr, "intent_put", at, e.Bytes())
		wire.PutEncoder(e)
		latest = vclock.Max(latest, done)
		if err != nil {
			first = err
			break
		}
		marked = append(marked, addr)
	}
	var removed []string
	notExist := 0
	if first == nil {
		seen := make(map[string]bool)
		sweepAt := latest
		for _, addr := range targets {
			e := wire.GetEncoder()
			e.String(p)
			e.Uint32(c.cfg.Cred.UID)
			e.Uint32(c.cfg.Cred.GID)
			e.Uvarint(id) // lets the sweep bypass its own intent
			done, resp, err := c.caller.Call(addr, "rmtree", sweepAt, e.Bytes())
			wire.PutEncoder(e)
			latest = vclock.Max(latest, done)
			if err != nil {
				if fsapi.CodeOf(err) == fsapi.CodeNotExist {
					notExist++
					continue
				}
				if first == nil {
					first = err
				}
				continue
			}
			d := wire.NewDecoder(resp)
			n := d.Uvarint()
			for i := uint64(0); i < n; i++ {
				rp := d.String()
				if !seen[rp] {
					seen[rp] = true
					removed = append(removed, rp)
				}
			}
			if derr := d.Finish(); derr != nil && first == nil {
				first = derr
			}
		}
		if first == nil && notExist == len(targets) {
			first = fsapi.WrapPath("rmdir", p, fsapi.ErrNotExist)
		}
	}
	latest = c.releaseIntent(latest, marked, p, id)
	if first != nil {
		return nil, latest, first
	}
	c.cacheDropSubtree(p)
	return removed, latest, nil
}

// shardedReaddir merges a directory listing across shards: mirrored
// directories list their hashed children on every shard, and delegated
// subtrees contribute their entries from the delegate. Entries are
// deduplicated by name (mirrored subdirectories appear on several
// shards) and the per-shard name-sorted order is preserved by a merge.
func (c *Client) shardedReaddir(at vclock.Time, p string, targets []string) ([]fsapi.DirEntry, vclock.Time, error) {
	latest := at
	var lists [][]fsapi.DirEntry
	notExist := 0
	for _, addr := range targets {
		e := wire.GetEncoder()
		e.String(p)
		done, resp, err := c.caller.Call(addr, "readdir", at, e.Bytes())
		wire.PutEncoder(e)
		if err != nil {
			if fsapi.CodeOf(err) == fsapi.CodeNotExist {
				notExist++
				continue
			}
			return nil, done, err
		}
		latest = vclock.Max(latest, done)
		d := wire.NewDecoder(resp)
		n := d.Uvarint()
		ents := make([]fsapi.DirEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			ents = append(ents, fsapi.DirEntry{Name: d.String(), Type: fsapi.FileType(d.Byte())})
		}
		if derr := d.Finish(); derr != nil {
			return nil, latest, derr
		}
		lists = append(lists, ents)
	}
	if notExist == len(targets) {
		return nil, latest, fsapi.WrapPath("readdir", p, fsapi.ErrNotExist)
	}
	return mergeDirEntries(lists), latest, nil
}

// mergeDirEntries k-way merges name-sorted listings, dropping duplicate
// names (mirrored structural subdirectories).
func mergeDirEntries(lists [][]fsapi.DirEntry) []fsapi.DirEntry {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	idx := make([]int, len(lists))
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]fsapi.DirEntry, 0, total)
	for {
		best := -1
		for li, l := range lists {
			if idx[li] >= len(l) {
				continue
			}
			if best < 0 || l[idx[li]].Name < lists[best][idx[best]].Name {
				best = li
			}
		}
		if best < 0 {
			return out
		}
		ent := lists[best][idx[best]]
		idx[best]++
		if len(out) == 0 || out[len(out)-1].Name != ent.Name {
			out = append(out, ent)
		}
	}
}
