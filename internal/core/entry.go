package core

import (
	"bytes"
	"errors"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// This file is the life of one cache entry (PAPER.md §III.D.1–3, §III.E.1)
//
//	absent → dirty(seq) → clean → removed marker → gone
//
// plus large, create-after-rm, the threshold claim and adoption — and the
// only code that knows what an entry may become: the value format, the
// client transitions (next), the one read-modify-write that stores them
// (Client.mutate; its owner runs entryRow), the one read (lookup) with the
// miss-load behind it (the owner's Region.loader) and the commit table
// (commitOutcome). Nothing else in core calls cache.Mutate or Set, or sets
// a flag. DESIGN.md §11 renders both tables. Invariants, checked by
// entry_explore_test.go at every step of every bounded interleaving of
// two clients, the commit process and eviction:
//
//   - a client's read after its own acked write returns that write or a
//     later one;
//   - removed ⇒ dirty, and a remove of that seq is queued;
//   - clean ⇒ the DFS holds the same size, and the same bytes when the
//     entry carries them; large and clean ⇒ it carries none;
//   - large and dirty is a claim: only the claimant changes the entry
//     (or, once it is given up for lost, the writer that waited for it),
//     no commit clears it (no queued op has its seq), eviction refuses it;
//   - once every queue is empty the entry is absent or clean.

// cacheVal is the distributed cache's value layout: the primary copy of
// one object's metadata plus Pacon's consistency bookkeeping flags. The
// header (flags byte, seq) is memcache's, which settles entries by it.
type cacheVal struct {
	// dirty marks metadata whose newest update is not yet committed to
	// the DFS (must not be evicted, §III.F).
	dirty bool
	// removed marks a deleted object awaiting its commit ("removed files
	// are marked and their cached metadata are deleted after the
	// operations are committed", §III.D.1). Reads treat it as absent.
	removed bool
	// large marks a file that outgrew the inline threshold: its data
	// lives on the DFS and only metadata stays cached. A large entry owns
	// its DFS copy: no queued create adopts or restats it.
	large bool
	// seq is the newest mutation's sequence number.
	seq  uint64
	stat fsapi.Stat
}

// cleanVal is the entry for committed DFS state (a miss-load).
func cleanVal(st fsapi.Stat, threshold int) cacheVal {
	return cacheVal{stat: st, large: st.Size > int64(threshold)}
}

// claimed reports a threshold crossing in progress (§III.D.2): the
// claimant is materializing the file on the DFS, and until its final CAS
// the entry still serves the acked inline content.
func (v cacheVal) claimed() bool { return v.large && v.dirty && !v.removed }

// encodeTo appends v's wire form to e — the pooled-encoder form of
// encode for hot paths. The caller owns e and must not recycle it until
// the cache RPC consuming e.Bytes() has returned; cache clients copy the
// value into their own request frame synchronously, so bracketing the
// call with wire.GetEncoder/PutEncoder is safe.
func (v cacheVal) encodeTo(e *wire.Encoder) {
	var flags byte
	if v.dirty {
		flags |= memcache.HdrDirty
	}
	if v.removed {
		flags |= memcache.HdrRemoved
	}
	if v.large {
		flags |= memcache.HdrLarge
	}
	memcache.AppendValueHeader(e, flags, v.seq)
	fsapi.EncodeStat(e, v.stat)
}

func (v cacheVal) encode() []byte {
	e := wire.NewEncoder(80 + len(v.stat.Inline))
	v.encodeTo(e)
	return e.Bytes()
}

func decodeCacheVal(b []byte) (cacheVal, error) {
	v, err := viewCacheVal(b)
	v.stat.Inline = bytes.Clone(v.stat.Inline)
	return v, err
}

// viewCacheVal is decodeCacheVal with the inline bytes a view of b, for a
// row, done with the value before the lock on b is released.
func viewCacheVal(b []byte) (cacheVal, error) {
	flags, seq, n, ok := memcache.ParseValueHeader(b)
	if !ok {
		return cacheVal{}, wire.ErrTruncated
	}
	// The decoder is poolable: every field is a scalar or a view of b.
	d := wire.GetDecoder(b[n:])
	v := cacheVal{
		dirty:   flags&memcache.HdrDirty != 0,
		removed: flags&memcache.HdrRemoved != 0,
		large:   flags&memcache.HdrLarge != 0,
		seq:     seq,
		stat:    fsapi.DecodeStatView(d),
	}
	err := d.Finish()
	wire.PutDecoder(d)
	if err != nil {
		return cacheVal{}, err
	}
	return v, nil
}

// evKind names what a client wants of an entry.
type evKind uint8

const (
	evCreate   evKind = iota // create or mkdir the object event.stat describes
	evRemove                 // rm; of an uncached file, event.stat is the DFS's stat
	evWrite                  // write event.data at event.off: inline, or the claim of a crossing
	evGrown                  // claim event.seq's file is on the DFS through event.size
	evRollback               // claim event.seq's transition failed on the DFS
	evSizeBump               // a write-through to a large file ended at event.size
	evLoad                   // the DFS holds event.stat (miss-load, §III.D.1 getattr)
)

// event is one client request against an entry.
type event struct {
	kind evKind
	// op and path name the request in the errors it fails with.
	op, path string
	// seq is the sequence number the mutation takes (evCreate, evRemove,
	// evWrite), or the claim it concludes (evGrown, evRollback).
	seq uint64
	// stat: see evCreate, evLoad; evRemove once hasStat says it was read.
	stat      fsapi.Stat
	hasStat   bool
	off, size int64
	data      []byte
	// fetched is what a write read from the DFS for an entry loaded without
	// its bytes, fetchedAt the CAS version of that entry (0: none).
	fetched   []byte
	fetchedAt uint64
	threshold int // the region's SmallFileThreshold
}

// encodeTo appends ev as a mutate's body (op, path, threshold do not travel).
func (ev *event) encodeTo(e *wire.Encoder) {
	e.Byte(byte(ev.kind))
	e.Uvarint(ev.seq)
	e.Bool(ev.hasStat)
	fsapi.EncodeStat(e, ev.stat)
	e.Uvarint(uint64(ev.off))
	e.Uvarint(uint64(ev.size))
	e.Blob(ev.data)
	e.Uvarint(ev.fetchedAt)
	e.Blob(ev.fetched)
}

// decodeEvent reads an event's wire form; data and fetched alias b. Offsets
// and sizes from 2^62 up are refused: one plus a frame's bytes must not wrap.
func decodeEvent(b []byte) (event, error) {
	d := wire.GetDecoder(b)
	ev := event{kind: evKind(d.Byte()), seq: d.Uvarint(), hasStat: d.Bool(), stat: fsapi.DecodeStat(d)}
	ev.off, ev.size = int64(d.Uvarint()), int64(d.Uvarint())
	ev.data, ev.fetchedAt, ev.fetched = d.BlobView(), d.Uvarint(), d.BlobView()
	err := d.Finish()
	wire.PutDecoder(d)
	if err == nil && (ev.kind > evLoad || uint64(ev.off)|uint64(ev.size) >= 1<<62) {
		err = errors.New("core: malformed mutate event")
	}
	return ev, err
}

// verdict is what next decided.
type verdict uint8

const (
	// vStore: store outcome.val over what was read, then enqueue.
	vStore verdict = iota
	// vKeep: nothing to store, the entry (outcome.val) stands. For evWrite
	// that is a large file: write through to the DFS.
	vKeep
	// vFail: outcome.err is the request's POSIX answer.
	vFail
	// vWait: another client's claim is in progress; re-read once it has
	// resolved.
	vWait
	// vFetch: the event needs DFS state the entry does not hold — the
	// stat of an uncached file (evRemove, evWrite) or the bytes of an
	// entry loaded without them (evWrite).
	vFetch
)

// outcome is one row's right-hand side.
type outcome struct {
	verdict verdict
	val     cacheVal
	// enqueue: after the store, an op of this kind commits val.stat under
	// val.seq; afterRm marks a create that replaced a removed marker
	// (Op.AfterRm).
	enqueue bool
	kind    OpKind
	afterRm bool
	err     error
}

func fail(ev *event, err error) outcome {
	return outcome{verdict: vFail, err: fsapi.WrapPath(ev.op, ev.path, err)}
}

// next is the client half of the transition table: what the entry cur
// (present says whether the cache holds one; a removed marker is present)
// becomes under ev. It is a pure function — the driver below, and the
// explorer in the tests, supply the reads and perform the stores.
func next(cur cacheVal, present bool, ev *event) outcome {
	live := present && !cur.removed
	switch ev.kind {
	case evCreate:
		if live {
			return fail(ev, fsapi.ErrExist)
		}
		kind := OpCreate
		if ev.stat.IsDir() {
			kind = OpMkdir
		}
		// Only a removed marker may be overwritten (create-after-rm): its
		// remove is still queued, which the op must know.
		return outcome{val: cacheVal{dirty: true, seq: ev.seq, stat: ev.stat},
			enqueue: true, kind: kind, afterRm: present}

	case evRemove:
		switch {
		case !present && !ev.hasStat:
			return outcome{verdict: vFetch} // the file may live only on the DFS
		case !present:
			cur = cacheVal{stat: ev.stat}
		case cur.removed:
			return fail(ev, fsapi.ErrNotExist)
		case cur.claimed():
			return outcome{verdict: vWait}
		}
		if cur.stat.IsDir() {
			return fail(ev, fsapi.ErrIsDir)
		}
		cur.removed, cur.dirty, cur.seq = true, true, ev.seq
		return outcome{val: cur, enqueue: true, kind: OpRemove}

	case evWrite:
		switch {
		case !present:
			return outcome{verdict: vFetch} // pull the metadata in first
		case cur.removed:
			return fail(ev, fsapi.ErrNotExist)
		case cur.stat.IsDir():
			return fail(ev, fsapi.ErrIsDir)
		case cur.claimed():
			// Writing through now would reach a DFS file that may not
			// exist yet, and an inline splice would be lost to the
			// claimant's final store.
			return outcome{verdict: vWait}
		case cur.large:
			return outcome{verdict: vKeep, val: cur}
		}
		if ev.off+int64(len(ev.data)) > int64(ev.threshold) {
			// Crossing the threshold (§III.D.2). The claim comes before
			// the DFS is touched: large so that no queued create adopts
			// the file the claimant is about to write, dirty under a seq
			// no queued op carries so that no commit clears it and no
			// eviction takes it, bytes and size untouched so that readers
			// keep being served the acked inline content.
			cur.large, cur.dirty, cur.seq = true, true, ev.seq
			return outcome{val: cur}
		}
		if int64(len(cur.stat.Inline)) < cur.stat.Size {
			// Loaded from the DFS without its data (cache-miss path, e.g.
			// after the clean entry was evicted): the bytes must come in
			// before splicing, or the write would zero-fill everything
			// outside its own range and commit that back over the real
			// content.
			return outcome{verdict: vFetch}
		}
		cur.stat.Inline = spliceInline(cur.stat.Inline, ev.off, ev.data)
		if sz := int64(len(cur.stat.Inline)); sz > cur.stat.Size {
			cur.stat.Size = sz
		}
		cur.dirty, cur.seq = true, ev.seq
		return outcome{val: cur, enqueue: true, kind: OpSetStat}

	case evGrown, evRollback:
		if !present || !cur.claimed() || cur.seq != ev.seq {
			// Not our claim any more. An rmdir or a rename dropped the
			// entry, or a failed node's cache server held it: the DFS has
			// the file and the next reader loads it. If something stands
			// in its place — a re-creation since, or what a waiter made of
			// a claim it took for lost (mutate) — that entry knows nothing
			// of this write, which has therefore failed.
			if present && ev.kind == evGrown {
				return fail(ev, fsapi.ErrStale)
			}
			return outcome{verdict: vKeep, val: cur}
		}
		if ev.kind == evRollback {
			// Back to the small dirty entry, inline intact. Its seq is the
			// claim's, which no queued op carries, so the backup write
			// that will clear it is enqueued here.
			cur.large = false
			return outcome{val: cur, enqueue: true, kind: OpSetStat}
		}
		cur.dirty = false // the DFS now holds the authoritative copy
		cur.stat.Inline = nil
		if ev.size > cur.stat.Size {
			cur.stat.Size = ev.size
		}
		return outcome{val: cur}

	case evSizeBump:
		if !live || !cur.large || cur.dirty || ev.size <= cur.stat.Size {
			return outcome{verdict: vKeep, val: cur}
		}
		cur.stat.Size = ev.size // clean: the DFS applied it
		return outcome{val: cur}

	default: // evLoad
		if present {
			return outcome{verdict: vKeep, val: cur} // someone else loaded it, or wrote
		}
		return outcome{val: cleanVal(ev.stat, ev.threshold)}
	}
}

// spliceInline writes data into a copy of buf at off, growing it as
// needed.
func spliceInline(buf []byte, off int64, data []byte) []byte {
	need := int(off) + len(data)
	if len(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	} else {
		buf = append([]byte(nil), buf...)
	}
	copy(buf[off:], data)
	return buf
}

// readEntry is the cache get of whoever needs the entry itself — fsync, a
// commit's ErrExist rows — rather than its stat: the decoded value and
// whether the cache holds one (a removed marker is held). A miss is not an
// error, and loads nothing. The value is decoded straight out of the reply
// buffer; only its inline bytes are copied.
func readEntry(cache *memcache.Client, at vclock.Time, p string) (v cacheVal, present bool, done vclock.Time, err error) {
	reply := wire.GetEncoder()
	defer wire.PutEncoder(reply)
	res, done, err := cache.Get(at, p, false, reply)
	if err != nil || res.Status == memcache.Miss {
		return cacheVal{}, false, done, err
	}
	v, err = decodeCacheVal(res.Item.Value)
	return v, err == nil, done, err
}

// A read (§III.D.1 getattr) is lookup → load: what the cache answers is
// the answer, and the paths it does not answer go to load. cache is the
// region's own, or a merged peer's with store false — a merged peer is
// read-only (§III.D.4). A miss on the region's own cache, one path's or
// many's, is loaded by the owning cache server in the get or get_multi
// that found it (Region.loader): one round trip, the DFS read at the
// owner, one read for all of a request's misses. A path whose owner cannot
// be reached or answers garbage is answered by the DFS (Client.load) and
// stored nowhere, and that owner is asked nothing more. A hit is decoded
// where the reply landed, in a pooled buffer: the stat's inline bytes are
// the one copy a read makes.

// lookup reads one path: one get, which the owner answers from the DFS on a
// miss. A load the owner could not add for lack of room is answered all
// the same, and the region makes room with one eviction round and asks
// once more.
func (c *Client) lookup(at vclock.Time, cache *memcache.Client, store bool, op, p string) (fsapi.Stat, vclock.Time, error) {
	reply := wire.GetEncoder()
	defer wire.PutEncoder(reply)
	res, at, err := cache.Get(at, p, store, reply)
	if err == nil && errors.Is(res.Err, fsapi.ErrOutOfSpace) {
		var evicted error
		if at, evicted = c.region.evictRound(c, at); evicted == nil {
			res, at, err = cache.Get(at, p, store, reply)
		}
	}
	if err != nil || res.Status == memcache.Miss {
		var out [1]fsapi.StatResult
		at = c.load(at, op, []string{p}, []int{0}, out[:])
		return out[0].Stat, at, out[0].Err
	}
	sr := c.answer(op, p, res)
	return sr.Stat, at, sr.Err
}

// readBatchSize caps how many paths lookupMulti packs into one multi-key
// cache round trip.
const readBatchSize = 64

// lookupMulti reads many paths: one get_multi per owning cache server per
// readBatchSize paths. The answer for paths[j] lands in out[idx[j]], or in
// out[j] when idx is nil; a path's failure is its own. A load an owner
// could not add for lack of room is answered all the same, and evicts
// nothing: a warm is an optimization, not worth an eviction round.
func (c *Client) lookupMulti(at vclock.Time, cache *memcache.Client, store bool, paths []string, idx []int, out []fsapi.StatResult) vclock.Time {
	for start := 0; start < len(paths); start += readBatchSize {
		chunk := paths[start:min(start+readBatchSize, len(paths))]
		var missed []string // for load, their answers going to out[to[k]]
		var to []int
		at = cache.GetMulti(at, chunk, store, func(i int, res memcache.Result, err error) {
			j := start + i
			if idx != nil {
				j = idx[j]
			}
			if err != nil || res.Status == memcache.Miss {
				missed, to = append(missed, chunk[i]), append(to, j)
				return
			}
			out[j] = c.answer("stat", chunk[i], res)
		})
		at = c.load(at, "stat", missed, to, out)
	}
	return at
}

// answer is a path's answer from its owner: the DFS's error for a load
// that failed, the entry otherwise — the one held, the one loaded (a cache
// warm), or the one read but not added. To a reader a removed marker is
// ErrNotExist: the region knows the object is gone, whatever the DFS still
// holds.
func (c *Client) answer(op, p string, res memcache.Result) fsapi.StatResult {
	switch res.Status {
	case memcache.Failed:
		return fsapi.StatResult{Err: fsapi.WrapPath(op, p, res.Err)}
	case memcache.Loaded:
		c.region.cacheWarms.Add(1)
	}
	return decodeStatResult(op, p, res.Item.Value)
}

// decodeStatResult is an entry read as a stat.
func decodeStatResult(op, p string, raw []byte) fsapi.StatResult {
	v, err := decodeCacheVal(raw)
	if err == nil && v.removed {
		err = fsapi.WrapPath(op, p, fsapi.ErrNotExist)
	}
	return fsapi.StatResult{Stat: v.stat, Err: err}
}

// loaded is the entry a stat the DFS answered becomes: next's evLoad row
// on an absent key.
func loaded(st fsapi.Stat, threshold int) cacheVal {
	return next(cacheVal{}, false, &event{kind: evLoad, stat: st, threshold: threshold}).val
}

// load answers from the DFS the paths a cache did not answer, storing
// nothing: Backend.Stat for one path and one Backend.StatBatch for many,
// either the authoritative read. It serves an owner that could not be
// reached and a merged peer's read-only cache. The answer for paths[j]
// lands in out[to[j]], a DFS error wrapped with op and the path.
func (c *Client) load(at vclock.Time, op string, paths []string, to []int, out []fsapi.StatResult) vclock.Time {
	return statPaths(c.backend, at, paths, func(j int, sr fsapi.StatResult) {
		out[to[j]] = fsapi.StatResult{Stat: sr.Stat, Err: fsapi.WrapPath(op, paths[j], sr.Err)}
	})
}

// loadToken is what a miss-load reads before it asks the DFS: the region's
// invalidation generation, its guard against invalidations (rmdir,
// rename). The owning cache server checks it under the key's shard lock
// just before the add (current). rmdir and rename bump it before they
// delete the subtree's entries, so an add either lands before the bump,
// and their delete takes it, or checks after it and stores nothing: a load
// overtaken by an invalidation never resurrects what it removed. Its
// answers stand either way.
func (r *Region) loadToken() uint64 { return r.invalGen.Load() }

// current is the owner's half of the guard (memcache.ServerConfig.Current,
// which NewRegion installs).
func (r *Region) current(token uint64) bool { return r.invalGen.Load() == token }

// loader is the miss-load (§III.D.1: getattr "loads from the DFS on
// miss") as the owning cache server runs it for a get or get_multi that
// asks to load (memcache.ServerConfig.Load; NewRegion installs one per
// node, over a backend of that node): one read of the request's misses
// under the load token, and for each the entry of what the DFS holds or
// the DFS's error. The server adds an entry only to a key still absent:
// whoever got there first holds state at least as new.
func (r *Region) loader(b Backend) memcache.Load {
	return func(at vclock.Time, keys []string, vals *wire.Encoder) (uint64, vclock.Time) {
		token := r.loadToken()
		val := wire.GetEncoder()
		done := statPaths(b, at, keys, func(_ int, sr fsapi.StatResult) {
			val.Reset()
			if sr.Err == nil {
				loaded(sr.Stat, r.cfg.SmallFileThreshold).encodeTo(val)
			}
			vals.Byte(fsapi.CodeOf(sr.Err))
			vals.Blob(val.Bytes())
		})
		wire.PutEncoder(val)
		return token, done
	}
}

// decodeAnswer reads entryRow's answer into out.
func decodeAnswer(b []byte, out *outcome) (err error) {
	if len(b) < 4 {
		return wire.ErrTruncated
	}
	out.verdict, out.kind, out.enqueue, out.afterRm = verdict(b[0]), OpKind(b[1]), b[2] != 0, b[3] != 0
	out.val, err = decodeCacheVal(b[4:])
	return err
}

// entryRow is next as the entry's cache server runs it under the key's lock
// (memcache.ServerConfig.Row; NewRegion installs it): an event in, next's
// value stored, a vFail row as the error, and an answer of verdict, kind,
// enqueue, afterRm and a value — the one stored, the claim a vWait waits on,
// or the entry a vFetch lacks the bytes of, seq its CAS version (0: absent).
func entryRow(threshold int) memcache.Row {
	return func(cur *memcache.Item, req []byte, val, reply *wire.Encoder) (bool, error) {
		ev, err := decodeEvent(req)
		var v cacheVal
		var ver uint64
		if err == nil && cur != nil {
			v, err = viewCacheVal(cur.Value) // done with before the lock is released
			ver = cur.CAS
		}
		if err != nil {
			return false, err
		}
		ev.threshold = threshold
		in := v
		if ev.fetchedAt != 0 && ev.fetchedAt == ver {
			in.stat.Inline = ev.fetched
		}
		out := next(in, cur != nil, &ev)
		switch out.verdict {
		case vFail:
			return false, out.err
		case vStore:
			out.val.encodeTo(val)
			if out.kind == OpRemove {
				out.val.stat.Inline = nil // the op commits a path, not bytes
			}
		case vWait:
			out.val = v
		case vFetch:
			out.val = cacheVal{seq: ver, stat: v.stat}
		}
		reply.Byte(byte(out.verdict))
		reply.Byte(byte(out.kind))
		reply.Bool(out.enqueue)
		reply.Bool(out.afterRm)
		out.val.encodeTo(reply)
		return out.verdict == vStore, nil
	}
}

// mutate is the one read-modify-write on a cache entry (§III.D.3): not the
// paper's CAS retried until success (Table I) but one round trip, next run
// by the entry's cache server (entryRow). It pushes the op the row owes,
// gives turn and reference back on any other answer, then does what the
// row leaves to it — fetch DFS state, wait out a claim, make room in a full
// cache — and returns the row; vFail comes back as its error.
func (c *Client) mutate(at vclock.Time, ev *event) (outcome, vclock.Time, error) {
	req, reply := wire.GetEncoder(), wire.GetEncoder()
	defer wire.PutEncoder(req)
	defer wire.PutEncoder(reply)
	table := &c.node.inflight
	var met uint64 // the claim last waited for
	queues := ev.kind != evGrown && ev.kind != evSizeBump
	for {
		req.Reset()
		ev.encodeTo(req)
		// A row that may queue an op is sent in the path's turn, held to the
		// push, so the owner stores in push order and the path is pending
		// before the store shows. A paced client meets its pacer before.
		var wall int64
		if queues {
			c.caller.Advance(at)
			if c.node.tel != nil {
				wall = time.Now().UnixNano()
			}
			table.take(ev.path, wall)
		}
		var out outcome
		var err error
		if at, err = c.cache.Mutate(at, ev.path, req.Bytes(), reply); err == nil {
			err = decodeAnswer(reply.Bytes(), &out)
		}
		if queues {
			if err == nil && out.enqueue {
				at, err = c.pushOp(at, ev.path, &out, wall)
				return out, at, err
			}
			table.giveBack(ev.path, wall)
		}
		switch {
		case errors.Is(err, fsapi.ErrOutOfSpace):
			if at, err = c.region.evictRound(c, at); err != nil {
				return out, at, err
			}
			continue
		case err != nil:
			return out, at, fsapi.WrapPath(ev.op, ev.path, err)
		case out.verdict == vFetch:
			// Ask again with what the DFS holds: the bytes the entry lacks, an
			// uncached file's stat for a remove, or a write's miss-load.
			switch {
			case out.val.seq != 0:
				var buf []byte
				buf, at, err = c.backend.ReadAt(at, ev.path, 0, int(out.val.stat.Size))
				// Bytes the DFS lacks read as zeros: the entry is complete.
				ev.fetched, ev.fetchedAt = append(buf, make([]byte, int(out.val.stat.Size)-len(buf))...), out.val.seq
				err = fsapi.WrapPath(ev.op, ev.path, err)
			case ev.kind == evRemove:
				ev.stat, at, err = c.backend.Stat(at, ev.path)
				ev.hasStat, err = true, fsapi.WrapPath(ev.op, ev.path, err)
			default:
				_, at, err = c.lookup(at, c.cache, true, ev.op, ev.path)
			}
			if err != nil {
				return out, at, err
			}
		case out.verdict == vWait && out.val.seq == met:
			// The claimant has concluded without its final store — it never
			// reached the cache, or the claimant's node failed — and nothing
			// else resolves its claim. It becomes the small dirty entry it
			// was made on, the backup write re-queued, and ev meets that.
			lost := event{kind: evRollback, op: ev.op, path: ev.path, seq: met}
			if _, at, err = c.mutate(at, &lost); err != nil {
				return out, at, err
			}
		case out.verdict == vWait:
			// Another client's claim: wait for its claimant to conclude — its
			// write's record to leave its node's table (WriteAt) — and ask again.
			met = out.val.seq
			for _, n := range c.region.nodes {
				if err = n.inflight.concluded(met); err != nil {
					return out, at, fsapi.WrapPath(ev.op, ev.path, err)
				}
			}
		default:
			return out, at, nil
		}
	}
}

// seedRoot stores the workspace root's committed metadata
// unconditionally — region init and Restore, the two places an entry is
// written without regard for what was there.
func seedRoot(cache *memcache.Client, at vclock.Time, workspace string, st fsapi.Stat) (vclock.Time, error) {
	_, done, err := cache.Set(at, workspace, cacheVal{stat: st}.encode(), 0)
	return done, err
}

// commitEnd is how a commit attempt ends for its op.
type commitEnd uint8

const (
	endCommitted commitEnd = iota
	endDiscarded           // under an active rmdir (§III.D.1)
	endResubmit            // park and retry (§III.E.1)
	endAdopt               // impose the create on the object the DFS has (committer.adopt)
	endDrop                // abandoned: verdict.reason says why
)

// The bookkeeping a commit row owes the entry, as the memcache.Settle it
// sends (Key and Seq are the op's).
var (
	// settleClear: the backup copy now matches the op's seq. A newer seq
	// means another mutation is in flight, whose own commit will clear.
	settleClear = &memcache.Settle{Clear: true}
	// settleDeleteSeq: delete the op's incarnation, and only it — a
	// newer one is live primary-copy metadata.
	settleDeleteSeq = &memcache.Settle{Cond: memcache.CondSeq}
	// settleDeleteSeqRemoved: delete the removed marker of the op's seq;
	// a create-after-rm's fresh entry is never destroyed.
	settleDeleteSeqRemoved = &memcache.Settle{Cond: memcache.CondSeqRemoved}
)

// commitVerdict is one commit row's right-hand side.
type commitVerdict struct {
	end    commitEnd
	settle *memcache.Settle // nil: the entry is owed nothing
	// inline: the landed op owes the DFS copy its inline content, which
	// leaves in the wave's one WriteBatch.
	inline bool
	reason string
	// ino is the inode an adoption set (committer.adopt), for the bytes:
	// 0 leaves them to the one the op's own batch answered.
	ino uint64
}

var (
	rowResubmit      = commitVerdict{end: endResubmit}
	rowCreateLanded  = commitVerdict{end: endCommitted, settle: settleClear, inline: true}
	rowRemoveLanded  = commitVerdict{end: endCommitted, settle: settleDeleteSeqRemoved}
	rowSetStatLanded = commitVerdict{end: endCommitted, settle: settleClear, inline: true}
	// rowDiscardCreate is the discard rule, applied before the DFS is
	// asked: a creation inside a directory being removed never reaches
	// it, and its cache entry is cleaned (§III.D.1).
	rowDiscardCreate = commitVerdict{end: endDiscarded, settle: settleDeleteSeq}
)

// rowDrop abandons op. An abandoned creation's entry is the primary copy
// of metadata that will never reach the DFS (e.g. a create accepted in
// the closing instants of an rmdir window whose parent is gone), and an
// abandoned remove's marker would sit dirty forever: both are deleted,
// guarded by seq, and reads fall through to whatever the DFS still holds.
func rowDrop(kind OpKind, reason string) commitVerdict {
	v := commitVerdict{end: endDrop, reason: reason}
	switch kind {
	case OpCreate, OpMkdir:
		v.settle = settleDeleteSeq
	case OpRemove:
		v.settle = settleDeleteSeqRemoved
	}
	return v
}

// needsEntry reports the rows that read the cache entry: a create the
// DFS refused with ErrExist. Every other row costs no cache round trip.
func needsEntry(kind OpKind, err error) bool {
	return (kind == OpCreate || kind == OpMkdir) && errors.Is(err, fsapi.ErrExist)
}

// commitOutcome is the commit half of the transition table: what it means
// that the DFS answered a commit attempt of op with err. removing says an
// rmdir is active over op.Path (the ErrNotExist rows read it); ent and
// present are the cache entry (read where needsEntry says so).
func commitOutcome(op *Op, err error, removing bool, ent cacheVal, present bool) commitVerdict {
	notExist := errors.Is(err, fsapi.ErrNotExist)
	switch {
	case errors.Is(err, fsapi.ErrClosed), errors.Is(err, fsapi.ErrStale):
		// Closed: an MDS shard is down — it will come back (or the router
		// falls back); Stale: a cross-shard protocol holds an intent over
		// this subtree and will release it. Both transient.
		return rowResubmit

	case op.Kind == OpCreate || op.Kind == OpMkdir:
		switch {
		case err == nil:
			return rowCreateLanded
		case notExist:
			return rowResubmit // parent not committed yet (possibly queued on another node)
		case !errors.Is(err, fsapi.ErrExist):
			// anything else: dropped, below
		case !present || ent.removed:
			return rowResubmit
		case ent.large:
			// (1) A large entry owns its DFS copy (§III.D.2): the claimant
			// creates the file itself if this op has not, and writes the
			// bytes and the size. Nothing is adopted, no stat or older
			// bytes are written over what it wrote, and a claim is not
			// cleared — its final CAS does that.
			return commitVerdict{end: endCommitted}
		case ent.seq != op.Seq || !ent.dirty:
			// (1) The object is there and the entry has moved on: a newer
			// mutation's commit carries the newer state.
			return commitVerdict{end: endCommitted, settle: settleClear}
		case op.AfterRm:
			// (2) An earlier incarnation's remove is still queued
			// (possibly on another node): the existing DFS file is doomed.
			// Resubmit until the remove lands (independent commit
			// reordering, §III.E.1).
			return rowResubmit
		default:
			// (3) No remove can be pending, so the DFS object is this same
			// path re-created after its clean cache entry was evicted.
			// Waiting would livelock until the resubmission budget drops
			// the op: adopt the object instead.
			return commitVerdict{end: endAdopt}
		}

	case op.Kind == OpRemove:
		switch {
		case err == nil, notExist && op.NetAbsent:
			// Net-absent: the folded create never reached the DFS, so an
			// absent path IS the committed state.
			return rowRemoveLanded
		case notExist && removing:
			return commitVerdict{end: endDiscarded, settle: settleDeleteSeqRemoved}
		case notExist:
			return rowResubmit // its create may still be queued on another node
		}

	case op.Kind == OpSetStat:
		switch {
		case err == nil:
			return rowSetStatLanded
		case notExist && removing:
			return commitVerdict{end: endDiscarded}
		case notExist:
			return rowResubmit // create still in flight
		}
	}
	return rowDrop(op.Kind, dropReasonBackendError)
}
