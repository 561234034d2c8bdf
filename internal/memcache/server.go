// Package memcache implements the distributed in-memory KV cache Pacon
// builds its metadata cache on (paper §III.A: a Memcached cluster
// launched on the application's nodes, keys distributed by DHT). The
// server supports the memcached operations Pacon relies on — get (which
// can read a miss through from the backing store, §III.D.1), set, stats,
// flush, deletes that always name what they expect to find, and a mutate
// that resolves concurrent updates (§III.D.3) under the key's lock — with
// byte-accurate memory accounting for §III.F's experiments.
package memcache

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

const numShards = 16

// Item is one cache entry.
type Item struct {
	Value []byte
	Flags uint32
	CAS   uint64
}

// ServerConfig configures a cache server.
type ServerConfig struct {
	// CapacityBytes bounds resident value+key bytes. 0 = unlimited. At
	// capacity an insert is rejected with ErrOutOfSpace and the owner
	// (Pacon's region eviction, §III.F) decides what to drop: the server
	// evicting on its own, as classic memcached's LRU does, could silently
	// discard dirty, not-yet-committed metadata.
	CapacityBytes int64
	// Model supplies the per-op service cost; Workers the pool width.
	Model   vclock.LatencyModel
	Workers int
	// Row is what a mutate runs (nil: every mutate fails).
	Row Row
	// Load is what a get or get_multi that asks to load does with the
	// keys the server does not hold (nil: a miss stays a miss).
	Load Load
	// Current reports whether values read under token may still be added
	// (nil: always). The server asks it under the key's shard lock just
	// before it adds a loaded value, so the guard against a load that an
	// invalidation overtook has one home.
	Current func(token uint64) bool
}

// Row computes a mutate of one key under its lock: from the stored item (nil:
// absent; neither kept nor changed) and the request it appends its answer to
// reply and, returning true, the value to store to val. An error is the answer.
type Row func(cur *Item, req []byte, val, reply *wire.Encoder) (store bool, err error)

// Load reads keys, which one request missed, from the store behind the
// cache in one read and appends to vals, for each key in order, what the
// read found: an error code (fsapi.CodeOf) and a blob, the value to add
// under CodeOK and empty otherwise. It returns the token the read was made
// under (see ServerConfig.Current).
type Load func(at vclock.Time, keys []string, vals *wire.Encoder) (token uint64, done vclock.Time)

// Server is one cache node. Safe for concurrent use.
type Server struct {
	cfg    ServerConfig
	res    *vclock.Resource
	shards [numShards]shard

	casSeq atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
	used   atomic.Int64
	// served counts every CacheOpCost charged on the service resource
	// (one per request, except settle_multi's one per key) — the
	// per-server load figure the region's cache-ring skew gauges compare.
	served atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	items map[string]*Item
	used  int64 // resident bytes in this shard
}

// NewServer builds a cache server.
func NewServer(name string, cfg ServerConfig) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	s := &Server{cfg: cfg, res: vclock.NewResource(name, cfg.Workers)}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*Item)
	}
	return s
}

// FNV-1a, inlined: hash/fnv returns its state behind an interface, which
// heap-allocates on every shardFor — one avoidable allocation per cache
// op on the hottest server path.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1a hashes a key held as a string or, aliasing a request frame, as bytes.
func fnv1a[K string | []byte](key K) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return h
}

func (s *Server) shardFor(key string) *shard {
	return &s.shards[fnv1a(key)%numShards]
}

func itemBytes(key string, v []byte) int64 { return int64(len(key) + len(v) + 64) }

// acquire charges one cache op on the service resource.
func (s *Server) acquire(at vclock.Time) vclock.Time { return s.acquireN(at, 1) }

// acquireN charges n cache ops in one service slot: the request waits
// for a worker once and holds it for n × CacheOpCost.
func (s *Server) acquireN(at vclock.Time, n int) vclock.Time {
	s.served.Add(int64(n))
	return s.res.Acquire(at, s.cfg.Model.CacheOpCost*vclock.Duration(n))
}

// ServedOps returns the total ops this server has served.
func (s *Server) ServedOps() int64 { return s.served.Load() }

// Get returns the item for key.
func (s *Server) Get(at vclock.Time, key string) (Item, vclock.Time, error) {
	done := s.acquire(at)
	if it, ok := s.copyOut(key); ok {
		return it, done, nil
	}
	return Item{}, done, fsapi.ErrNotExist
}

// copyOut returns a copy of key's item and whether there is one, counting
// the hit or the miss.
func (s *Server) copyOut(key string) (Item, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	si, ok := sh.items[key]
	if !ok {
		s.misses.Add(1)
		return Item{}, false
	}
	s.hits.Add(1)
	out := *si
	out.Value = append([]byte(nil), si.Value...)
	return out, true
}

// lookupInto looks up key — raw bytes aliasing the request frame, used
// only for the shard hash and the map probe, never retained — and on a
// hit appends its answer to e: Hit with CAS, flags and value, encoded
// under the shard lock. Encoding under the lock is safe because stored
// value buffers are never mutated in place: store and clearDirty always
// install fresh copies. This is the single-copy serving path behind the
// get and get_multi handlers (value goes straight from the shard into the
// reply encoder, the caller's own on the Bus); hit/miss accounting matches
// Get.
func (s *Server) lookupInto(e *wire.Encoder, key []byte) bool {
	sh := &s.shards[fnv1a(key)%numShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	si, ok := sh.items[string(key)]
	if !ok {
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	appendItem(e, Hit, si)
	return true
}

// Status is what a get or a get_multi answers for one key; it is the
// answer's first byte.
type Status uint8

const (
	// Miss: the server does not hold the key, and did not load it.
	Miss Status = iota
	// Hit: the server holds the key; CAS, flags and value follow. A load
	// whose key was filled meanwhile answers Hit with that entry.
	Hit
	// Loaded: the value was added; CAS, flags and value follow.
	Loaded
	// Unstored: the value was not added; the reason (an error code:
	// ErrOutOfSpace for no room, OK for an overtaken load) and the value
	// follow.
	Unstored
	// Failed: the key's load failed; its error code follows.
	Failed
)

func appendItem(e *wire.Encoder, st Status, si *Item) {
	e.Byte(byte(st))
	e.Uint64(si.CAS)
	e.Uint32(si.Flags)
	e.Blob(si.Value)
}

// missed is one request's misses that go to the Load hook: each key, and
// where the Miss standing in for its answer sits in the reply. Pooled, so
// a request that loads allocates only its keys' strings and entries.
type missed struct {
	keys []string
	at   []int
}

var misses = sync.Pool{New: func() any { return new(missed) }}

// miss answers key Miss in reply and, when the request asks to load and
// the server has a hook, notes the key for load in m, taken from the pool
// at the request's first miss; it returns m. A request loads its first
// presize misses only; the rest stay Misses, as a get that does not ask
// to load answers. No request core sends has more, and no frame can make
// the server stage more.
func (s *Server) miss(m *missed, load bool, key []byte, reply *wire.Encoder) *missed {
	if load && s.cfg.Load != nil && (m == nil || len(m.keys) < presize) {
		if m == nil {
			m = misses.Get().(*missed)
		}
		m.keys = append(m.keys, string(key))
		m.at = append(m.at, reply.Len())
	}
	reply.Byte(byte(Miss))
	return m
}

// load answers m's keys through the Load hook in place of the Misses they
// left in reply: one read for all of them, then one more service slot in
// which each is added (add) or answered Failed with its read's error code.
// The reply from the first Miss on is set aside and put back around the
// answers. m goes back to the pool.
func (s *Server) load(at vclock.Time, m *missed, reply *wire.Encoder) vclock.Time {
	vals, rest := wire.GetEncoder(), wire.GetEncoder()
	token, done := s.cfg.Load(at, m.keys, vals)
	done = s.acquire(done)
	m.at = append(m.at, reply.Len()) // each Miss's tail runs to the next place
	rest.Raw(reply.Bytes()[m.at[0]:])
	reply.Truncate(m.at[0])
	d := wire.GetDecoder(vals.Bytes())
	for i, key := range m.keys {
		code, val := d.Byte(), d.BlobView()
		if d.Err() != nil { // a hook that answered too little
			code = fsapi.CodeOf(d.Err())
		}
		if code == fsapi.CodeOK {
			s.add(key, val, token, reply)
		} else {
			reply.Byte(byte(Failed))
			reply.Byte(code)
		}
		reply.Raw(rest.Bytes()[m.at[i]+1-m.at[0] : m.at[i+1]-m.at[0]])
	}
	wire.PutDecoder(d)
	wire.PutEncoder(vals)
	wire.PutEncoder(rest)
	clear(m.keys)
	m.keys, m.at = m.keys[:0], m.at[:0]
	misses.Put(m)
	return done
}

// add stores value as key's entry if the key is still absent and token is
// current, both checked under the key's shard lock, and appends the
// answer: Loaded, Hit with the entry that got there first, or Unstored —
// ErrOutOfSpace when there is no room, OK when token is no longer current.
func (s *Server) add(key string, value []byte, token uint64, reply *wire.Encoder) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if si := sh.items[key]; si != nil {
		appendItem(reply, Hit, si)
		return
	}
	var err error
	if s.cfg.Current == nil || s.cfg.Current(token) {
		var cas uint64
		if cas, err = s.put(sh, key, nil, value, 0); err == nil {
			appendItem(reply, Loaded, &Item{Value: value, CAS: cas})
			return
		}
	}
	reply.Byte(byte(Unstored))
	reply.Byte(fsapi.CodeOf(err))
	reply.Blob(value)
}

// GetMultiResult is one per-key result of GetMulti; a miss is Hit ==
// false, not an error.
type GetMultiResult struct {
	Item Item
	Hit  bool
}

// GetMulti looks up a batch of keys in one service slot (memcached
// multiget): the batch charges one CacheOpCost — the round-trip economy
// batched reads exist for — while hit/miss accounting matches N single
// Gets.
func (s *Server) GetMulti(at vclock.Time, keys []string) ([]GetMultiResult, vclock.Time) {
	done := s.acquire(at)
	out := make([]GetMultiResult, len(keys))
	for i, key := range keys {
		out[i].Item, out[i].Hit = s.copyOut(key)
	}
	return out, done
}

// Set unconditionally stores key and returns the new CAS version.
func (s *Server) Set(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	done := s.acquire(at)
	cas, err := s.store(key, value, flags, storeSet, 0)
	return cas, done, err
}

// Add stores key only if absent (memcached "add"). No endpoint serves it:
// it is the in-process form, for measuring the store path.
func (s *Server) Add(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	done := s.acquire(at)
	cas, err := s.store(key, value, flags, storeAdd, 0)
	return cas, done, err
}

// CAS stores key only if the current version matches expect, returning
// the new version. ErrStale on version mismatch, ErrNotExist if the key
// vanished (paper §III.D.3: conflicting writers retry).
func (s *Server) CAS(at vclock.Time, key string, value []byte, flags uint32, expect uint64) (uint64, vclock.Time, error) {
	done := s.acquire(at)
	cas, err := s.store(key, value, flags, storeCAS, expect)
	return cas, done, err
}

type storeMode uint8

const (
	storeSet storeMode = iota
	storeAdd
	storeCAS
)

func (s *Server) store(key string, value []byte, flags uint32, mode storeMode, expect uint64) (uint64, error) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	si, exists := sh.items[key]
	switch mode {
	case storeAdd:
		if exists {
			return 0, fsapi.ErrExist
		}
	case storeCAS:
		if !exists {
			return 0, fsapi.ErrNotExist
		}
		if si.CAS != expect {
			return 0, fsapi.ErrStale
		}
	}
	return s.put(sh, key, si, value, flags)
}

// put stores a copy of value as key's item si (nil: absent; sh's lock held).
func (s *Server) put(sh *shard, key string, si *Item, value []byte, flags uint32) (uint64, error) {
	delta := itemBytes(key, value)
	if si != nil {
		delta -= itemBytes(key, si.Value)
	}
	// The budget is the server's, not the shard's: the owner (Pacon's
	// region-level round-robin eviction) reacts to aggregate usage.
	if s.cfg.CapacityBytes > 0 && s.used.Load()+delta > s.cfg.CapacityBytes {
		return 0, fsapi.ErrOutOfSpace
	}

	cas := s.casSeq.Add(1)
	v := append([]byte(nil), value...)
	if si != nil {
		*si = Item{Value: v, Flags: flags, CAS: cas}
	} else {
		sh.items[key] = &Item{Value: v, Flags: flags, CAS: cas}
	}
	sh.used += delta
	s.used.Add(delta)
	return cas, nil
}

// mutate serves "mutate" (a key and the row's request): the row's
// read-modify-write of the key, and its store (flags 0, ErrOutOfSpace at
// capacity), in one service slot and one round trip, with no loser to retry.
func (s *Server) mutate(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
	d := wire.GetDecoder(body)
	key, req := d.String(), d.BlobView()
	err := d.Finish()
	wire.PutDecoder(d)
	if err != nil {
		return at, err
	}
	done := s.acquire(at)
	if s.cfg.Row == nil {
		return done, errors.New("memcache: mutate: no row installed")
	}
	val := wire.GetEncoder()
	defer wire.PutEncoder(val)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	si := sh.items[key]
	store, err := s.cfg.Row(si, req, val, reply)
	if err == nil && store {
		_, err = s.put(sh, key, si, val.Bytes(), 0)
	}
	return done, err
}

// Pacon's core stores cache values with a fixed leading layout — one
// flags byte followed by a uvarint sequence number. The settle actions
// below evaluate their predicate against exactly this header, under the
// owning shard's lock, so the commit module's bookkeeping needs no Get +
// CAS retry loop and a whole commit wave's worth rides one request. This
// block is the header's one definition: core builds and reads its values
// through AppendValueHeader and ParseValueHeader, and values too short to
// carry the header never match a predicate that reads it.
const (
	// HdrDirty: the newest update is not yet committed to the DFS.
	HdrDirty byte = 1 << iota
	// HdrRemoved: a deleted object awaiting its commit.
	HdrRemoved
	// HdrLarge: the file's data lives on the DFS. No predicate here reads
	// it; it sits with the others so the flags byte has one owner.
	HdrLarge
)

// AppendValueHeader appends the value header to e.
func AppendValueHeader(e *wire.Encoder, flags byte, seq uint64) {
	e.Byte(flags)
	e.Uvarint(seq)
}

// ParseValueHeader reads the value header; n is its length in v.
func ParseValueHeader(v []byte) (flags byte, seq uint64, n int, ok bool) {
	if len(v) < 2 {
		return 0, 0, 0, false
	}
	seq, n = binary.Uvarint(v[1:])
	if n <= 0 {
		return 0, 0, 0, false
	}
	return v[0], seq, 1 + n, true
}

// Cond selects the predicate of a conditional delete.
type Cond uint8

// Conditional-delete predicates, mirroring the cleanup sites: seq match
// (discard rule, abandoned creates), seq match on a removed marker
// (committed removes), clean (eviction),
// and none (rmdir and rename dropping entries whose objects the DFS no
// longer has).
const (
	// CondSeq: the value's seq equals the given seq.
	CondSeq Cond = iota
	// CondSeqRemoved: seq matches and the removed flag is set.
	CondSeqRemoved
	// CondClean: neither dirty nor removed — committed metadata.
	CondClean
	// CondAlways: whatever the value holds.
	CondAlways
)

func condHolds(cond Cond, seq uint64, flags byte, vseq uint64) bool {
	switch cond {
	case CondSeq:
		return vseq == seq
	case CondSeqRemoved:
		return vseq == seq && flags&HdrRemoved != 0
	case CondClean:
		return flags&(HdrDirty|HdrRemoved) == 0
	case CondAlways:
		return true
	default:
		return false
	}
}

// Settle is one key of a settle_multi request: the bookkeeping a cache
// entry is owed once the DFS holds — or will never hold — the state it
// describes. With Clear set the dirty flag of incarnation Seq is
// cleared; otherwise the key is deleted if Cond holds for Seq and the
// value's header. Every entry carries its own Seq, so one request can
// settle a whole commit wave.
type Settle struct {
	Key   string
	Seq   uint64
	Cond  Cond
	Clear bool
}

// A settle entry's action travels as one byte: 0 clears the dirty flag,
// 1+cond deletes under that predicate.
const actClear = 0

var errUnknownAction = errors.New("memcache: settle_multi: unknown action")

func (en Settle) action() byte {
	if en.Clear {
		return actClear
	}
	return 1 + byte(en.Cond)
}

// setAction is action's inverse; it refuses a byte no client sends.
func (en *Settle) setAction(act byte) bool {
	en.Clear = act == actClear
	if !en.Clear {
		en.Cond = Cond(act - 1)
	}
	return act <= 1+byte(CondAlways)
}

// SettleMulti applies every entry in one request and returns how many
// took effect (flags cleared plus keys deleted). Each entry's predicate
// runs under its key's shard lock, so no concurrent writer can slip
// between the check and the update: an absent key, a seq that moved on,
// an already-clean value or a failing Cond are no-ops, not errors. The
// server is charged len(entries) × CacheOpCost in one service slot: what
// the batch saves is the round trips, not the work.
func (s *Server) SettleMulti(at vclock.Time, entries []Settle) (int, vclock.Time) {
	done := s.acquireN(at, len(entries))
	applied := 0
	for _, en := range entries {
		var ok bool
		if en.Clear {
			ok = s.clearDirty(en.Key, en.Seq)
		} else {
			ok = s.deleteIf(en.Key, en.Cond, en.Seq)
		}
		if ok {
			applied++
		}
	}
	return applied, done
}

// clearDirty clears the dirty flag of key's value if its seq equals seq,
// bumping the CAS version (it is a store), under the shard lock.
func (s *Server) clearDirty(key string, seq uint64) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	si, ok := sh.items[key]
	if !ok {
		return false
	}
	flags, vseq, _, hok := ParseValueHeader(si.Value)
	if !hok || vseq != seq || flags&HdrDirty == 0 {
		return false
	}
	v := append([]byte(nil), si.Value...)
	v[0] = flags &^ HdrDirty
	si.Value = v
	si.CAS = s.casSeq.Add(1)
	return true
}

// deleteIf removes key if cond holds for its value header, under the
// shard lock.
func (s *Server) deleteIf(key string, cond Cond, seq uint64) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	si, ok := sh.items[key]
	if !ok {
		return false
	}
	// A value too short to carry the header matches only CondAlways.
	flags, vseq, _, hok := ParseValueHeader(si.Value)
	if cond != CondAlways && !(hok && condHolds(cond, seq, flags, vseq)) {
		return false
	}
	freed := itemBytes(key, si.Value)
	sh.used -= freed
	s.used.Add(-freed)
	delete(sh.items, key)
	return true
}

// ForEach calls fn for every resident item with a copied value. Each
// shard is snapshotted under its lock and fn runs after the lock is
// released, so fn may call back into the server. Intended for white-box
// verification (tests, the chaos harness oracle), not the serving path;
// it charges no virtual time.
func (s *Server) ForEach(fn func(key string, item Item)) {
	type kv struct {
		key  string
		item Item
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		snap := make([]kv, 0, len(sh.items))
		for k, si := range sh.items {
			it := *si
			it.Value = append([]byte(nil), si.Value...)
			snap = append(snap, kv{key: k, item: it})
		}
		sh.mu.Unlock()
		for _, e := range snap {
			fn(e.key, e.item)
		}
	}
}

// FlushAll drops every item.
func (s *Server) FlushAll(at vclock.Time) vclock.Time {
	done := s.acquire(at)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.items = make(map[string]*Item)
		sh.used = 0
		sh.mu.Unlock()
	}
	s.used.Store(0)
	return done
}

// Stats is a server statistics snapshot (memcached "stats").
type Stats struct {
	Items     int64
	UsedBytes int64
	Hits      int64
	Misses    int64
	// Evictions is always 0: the server never evicts on its own (see
	// ServerConfig.CapacityBytes). The field and its slot in the stats
	// reply are kept for their readers.
	Evictions int64
	// ServedOps is every op charged on the service resource (gets, sets,
	// deletes, scans...), the load figure behind the cache-skew gauges.
	ServedOps int64
}

// Stats returns current counters.
func (s *Server) Stats() Stats {
	var items int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		items += int64(len(sh.items))
		sh.mu.Unlock()
	}
	return Stats{
		Items:     items,
		UsedBytes: s.used.Load(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		ServedOps: s.served.Load(),
	}
}

// HeaderCounts scans resident values' shared header (ParseValueHeader)
// and reports how many carry the dirty and removed flags — the
// dirty-key gauges of the observability layer. Values that predate or
// bypass the header contract count as neither. Diagnostic only; charges
// no virtual time.
func (s *Server) HeaderCounts() (dirty, removed int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, si := range sh.items {
			if flags, _, _, ok := ParseValueHeader(si.Value); ok {
				if flags&HdrDirty != 0 {
					dirty++
				}
				if flags&HdrRemoved != 0 {
					removed++
				}
			}
		}
		sh.mu.Unlock()
	}
	return dirty, removed
}

// KeyValue is one key with a copied value, as returned by CommittedItems.
type KeyValue struct {
	Key   string
	Value []byte
}

// CommittedItems returns up to limit resident entries whose value header
// carries neither the dirty nor the removed flag — entries the region
// believes are durably backed on the DFS. The divergence auditor samples
// these server-side (HeaderCounts-style per-shard iteration under the
// shard lock, header parse only; values are copied just for the selected
// keys) so the audit set never includes in-flight writes by
// construction. limit < 0 means no limit. Diagnostic only; charges no
// virtual time.
func (s *Server) CommittedItems(limit int) []KeyValue {
	var out []KeyValue
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, si := range sh.items {
			if limit >= 0 && len(out) >= limit {
				break
			}
			flags, _, _, ok := ParseValueHeader(si.Value)
			if !ok || flags&(HdrDirty|HdrRemoved) != 0 {
				continue
			}
			out = append(out, KeyValue{Key: k, Value: append([]byte(nil), si.Value...)})
		}
		sh.mu.Unlock()
		if limit >= 0 && len(out) >= limit {
			return out
		}
	}
	return out
}

// Resource exposes the service resource for utilization reporting.
func (s *Server) Resource() *vclock.Resource { return s.res }

// presize caps what a multi-key handler allocates up front on a peer's
// count: wire's Count bounds it only by the bytes left in the frame (16 MiB
// over TCP, one byte an empty key) while a decoded entry is 40 to 48
// bytes. No batch core sends is larger, so a real request still allocates
// once; a larger one grows on demand. It also caps the misses a get_multi
// loads (miss).
const presize = 1024

// Service wires the server's methods into an RPC mux. Every handler
// appends its reply to the encoder the transport passes in — on the Bus
// the calling client's own — so a cache hit's value goes from the shard
// into the caller's buffer with one copy and no allocation.
func (s *Server) Service() *rpc.Service {
	svc := rpc.NewService()
	svc.HandleInto("get", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		// A load flag, then the key, read as a BlobView (string and blob
		// share the uvarint+bytes framing): it aliases the request frame,
		// which stays valid for the whole handler, and lookupInto never
		// retains it. With the flag set, a miss is answered by the load.
		d := wire.GetDecoder(body)
		load := d.Bool()
		key := d.BlobView()
		err := d.Finish()
		wire.PutDecoder(d)
		if err != nil {
			return at, err
		}
		done := s.acquire(at)
		var m *missed
		if !s.lookupInto(reply, key) {
			m = s.miss(m, load, key, reply)
		}
		if m != nil {
			done = s.load(done, m, reply)
		}
		return done, nil
	})
	svc.HandleInto("get_multi", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		// A count with the load flag in its low bit, so a get_multi that
		// loads nothing is the size it always was, then the keys, read as
		// views like get's. Each key costs at least its length prefix, so
		// a larger count is refused before anything is sized by it. The
		// misses are loaded together once every key has been looked up,
		// and only from a well-formed frame.
		d := wire.GetDecoder(body)
		head := d.Uvarint()
		load, n := head&1 == 1, head>>1
		if d.Err() == nil && n > uint64(d.Remaining()) {
			d.Fail(wire.ErrTooLong)
		}
		if err := d.Err(); err != nil {
			wire.PutDecoder(d)
			return at, err
		}
		done := s.acquire(at)
		reply.Uvarint(n)
		var m *missed
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			if key := d.BlobView(); d.Err() == nil && !s.lookupInto(reply, key) {
				m = s.miss(m, load, key, reply)
			}
		}
		err := d.Finish()
		wire.PutDecoder(d)
		if m != nil && err == nil { // a refused frame's misses go to the collector
			done = s.load(done, m, reply)
		}
		return done, err
	})
	svc.HandleInto("set", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		d := wire.GetDecoder(body)
		key := d.String()
		flags := d.Uint32()
		value := d.BlobView()
		err := d.Finish()
		wire.PutDecoder(d)
		if err != nil {
			return at, err
		}
		done := s.acquire(at)
		cas, err := s.store(key, value, flags, storeSet, 0)
		if err != nil {
			return done, err
		}
		reply.Uint64(cas)
		return done, nil
	})
	svc.HandleInto("mutate", s.mutate)
	svc.HandleInto("settle_multi", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		// The whole frame is decoded and every action checked before the
		// first key is touched: a malformed request settles nothing.
		// Count rejects a count larger than the bytes left, so a corrupt
		// one cannot size the entry slice.
		d := wire.GetDecoder(body)
		n := d.Count()
		entries := make([]Settle, 0, min(n, presize))
		known := true
		for i := 0; i < n && d.Err() == nil; i++ {
			en := Settle{Key: d.String()}
			known = en.setAction(d.Byte()) && known
			en.Seq = d.Uvarint()
			entries = append(entries, en)
		}
		err := d.Finish()
		wire.PutDecoder(d)
		if err == nil && !known {
			err = errUnknownAction
		}
		if err != nil {
			return at, err
		}
		applied, done := s.SettleMulti(at, entries)
		reply.Uvarint(uint64(applied))
		return done, nil
	})
	svc.HandleInto("flush_all", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		return s.FlushAll(at), nil
	})
	return svc
}
