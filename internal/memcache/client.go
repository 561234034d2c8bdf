package memcache

import (
	"fmt"
	"sync"

	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Client routes cache operations to the owning server through a
// consistent-hash ring, exactly as Pacon distributes full-path metadata
// keys across a consistent region's nodes.
type Client struct {
	caller *rpc.Caller
	ring   *dht.Ring
}

// NewClient builds a client. The ring's members must be RPC addresses
// (e.g. "node3/cache") registered on the caller's transport.
func NewClient(caller *rpc.Caller, ring *dht.Ring) *Client {
	return &Client{caller: caller, ring: ring}
}

// Ring exposes the routing ring (region merge reads a peer region's ring).
func (c *Client) Ring() *dht.Ring { return c.ring }

// Owner returns the server address responsible for key.
func (c *Client) Owner(key string) string { return c.ring.Lookup(key) }

// Calls returns the number of RPCs this client has issued.
func (c *Client) Calls() int64 { return c.caller.Calls() }

// SetTrace tags subsequent cache RPCs with the span's trace context so
// the cache servers' handler timings land in the originating op's span.
func (c *Client) SetTrace(span uint64) { c.caller.SetTrace(span) }

// ClearTrace removes the trace context set by SetTrace.
func (c *Client) ClearTrace() { c.caller.ClearTrace() }

// callKey issues a single-key request (pooled request encoder).
func (c *Client) callKey(method string, at vclock.Time, key string) (vclock.Time, []byte, error) {
	e := wire.GetEncoder()
	e.String(key)
	done, resp, err := c.caller.Call(c.Owner(key), method, at, e.Bytes())
	wire.PutEncoder(e)
	return done, resp, err
}

// Get fetches key from its owner.
func (c *Client) Get(at vclock.Time, key string) (Item, vclock.Time, error) {
	done, resp, err := c.callKey("get", at, key)
	if err != nil {
		return Item{}, done, err
	}
	d := wire.GetDecoder(resp)
	item := Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.Blob()}
	derr := d.Finish()
	wire.PutDecoder(d)
	if derr != nil {
		return Item{}, done, derr
	}
	return item, done, nil
}

// MultiResult is one per-key result of Client.GetMulti: Hit/Item on
// success, Err when the key's owner could not be reached or answered
// garbage. A plain miss is Hit == false with a nil Err.
type MultiResult struct {
	Item Item
	Hit  bool
	Err  error
}

// perOwner groups keys by owning server and runs call once per group,
// every call starting at the same virtual instant — the one fan-out
// behind GetMulti, AddMulti and SettleMulti. call issues the owner's
// RPC, records the results of the positions in g.Idx and returns the
// RPC's completion time. Several groups run concurrently where their
// waits can overlap; a lone group, and every group on a transport that
// runs handlers on the calling goroutine (rpc.Caller.Inline), runs on
// the caller's goroutine — the virtual completion is the same and no
// goroutine is spawned to wait for nothing. perOwner returns how many
// owners were contacted and the latest completion (vclock.Max merge).
func (c *Client) perOwner(at vclock.Time, keys []string, call func(g dht.OwnerGroup) vclock.Time) (int, vclock.Time) {
	groups := c.ring.GroupByOwner(keys)
	if len(groups) <= 1 || c.caller.Inline() {
		latest := at
		for _, g := range groups {
			latest = vclock.Max(latest, call(g))
		}
		return len(groups), latest
	}
	var wg sync.WaitGroup
	times := make([]vclock.Time, len(groups))
	for gi := range groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			times[gi] = call(groups[gi])
		}(gi)
	}
	wg.Wait()
	latest := at
	for _, t := range times {
		latest = vclock.Max(latest, t)
	}
	return len(groups), latest
}

// callCounted sends one owner's multi-key request (pooled encoder e,
// released here) and checks that the reply opens with a count of want
// results. On success the caller reads the results from the returned
// decoder and hands it to finish.
func (c *Client) callCounted(addr, method string, at vclock.Time, e *wire.Encoder, want int) (*wire.Decoder, vclock.Time, error) {
	done, resp, err := c.caller.Call(addr, method, at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return nil, done, err
	}
	d := wire.GetDecoder(resp)
	if n := d.Uvarint(); n != uint64(want) {
		wire.PutDecoder(d)
		return nil, done, fmt.Errorf("memcache: %s returned %d results for %d keys", method, n, want)
	}
	return d, done, nil
}

// finish releases a reply decoder and reports a malformed tail.
func finish(d *wire.Decoder) error {
	err := d.Finish()
	wire.PutDecoder(d)
	return err
}

// GetMulti fetches keys with one "get_multi" RPC per owning server,
// fanned out from the same virtual instant (see perOwner) and merged with
// vclock.Max — the batched read path's single round trip per owner.
// Results align with keys. A dead or misbehaving owner marks only its
// own keys with Err; the other owners' keys still resolve, so callers
// can fall back to per-key Gets for exactly the failed subset.
func (c *Client) GetMulti(at vclock.Time, keys []string) ([]MultiResult, vclock.Time) {
	out := make([]MultiResult, len(keys))
	_, latest := c.perOwner(at, keys, func(g dht.OwnerGroup) vclock.Time {
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx)))
		for _, i := range g.Idx {
			e.String(keys[i])
		}
		d, done, err := c.callCounted(g.Owner, "get_multi", at, e, len(g.Idx))
		if err == nil {
			for _, i := range g.Idx {
				if d.Bool() {
					out[i] = MultiResult{
						Item: Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.Blob()},
						Hit:  true,
					}
				}
			}
			err = finish(d)
		}
		if err != nil {
			for _, i := range g.Idx {
				out[i] = MultiResult{Err: err}
			}
		}
		return done
	})
	return out, latest
}

// AddMulti stores a batch of entries add-if-absent with one "add_multi"
// RPC per owning server (perOwner fan-out, vclock.Max merge) — the
// grouped cache warm. Results align with entries; per-entry ErrExist /
// ErrOutOfSpace mean "skip", a transport error marks the whole owner's
// slice.
func (c *Client) AddMulti(at vclock.Time, entries []AddEntry) ([]AddResult, vclock.Time) {
	out := make([]AddResult, len(entries))
	keys := make([]string, len(entries))
	for i, en := range entries {
		keys[i] = en.Key
	}
	_, latest := c.perOwner(at, keys, func(g dht.OwnerGroup) vclock.Time {
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx)))
		for _, i := range g.Idx {
			e.String(entries[i].Key)
			e.Uint32(entries[i].Flags)
			e.Blob(entries[i].Value)
		}
		d, done, err := c.callCounted(g.Owner, "add_multi", at, e, len(g.Idx))
		if err == nil {
			for _, i := range g.Idx {
				code := d.Byte()
				cas := d.Uint64()
				out[i] = AddResult{CAS: cas, Err: fsapi.ErrOf(code, "")}
			}
			err = finish(d)
		}
		if err != nil {
			for _, i := range g.Idx {
				out[i] = AddResult{Err: err}
			}
		}
		return done
	})
	return out, latest
}

func (c *Client) storeOp(method string, at vclock.Time, key string, value []byte, flags uint32, expect uint64) (uint64, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uint32(flags)
	e.Uint64(expect)
	e.Blob(value)
	done, resp, err := c.caller.Call(c.Owner(key), method, at, e.Bytes())
	wire.PutEncoder(e)
	if err != nil {
		return 0, done, err
	}
	d := wire.GetDecoder(resp)
	cas := d.Uint64()
	derr := d.Finish()
	wire.PutDecoder(d)
	if derr != nil {
		return 0, done, derr
	}
	return cas, done, nil
}

// Set unconditionally stores key.
func (c *Client) Set(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	return c.storeOp("set", at, key, value, flags, 0)
}

// Add stores key only if absent.
func (c *Client) Add(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	return c.storeOp("add", at, key, value, flags, 0)
}

// CAS stores key only if its version is still expect.
func (c *Client) CAS(at vclock.Time, key string, value []byte, flags uint32, expect uint64) (uint64, vclock.Time, error) {
	return c.storeOp("cas", at, key, value, flags, expect)
}

// Delete removes key from its owner.
func (c *Client) Delete(at vclock.Time, key string) (vclock.Time, error) {
	done, _, err := c.callKey("delete", at, key)
	return done, err
}

// DeleteCAS removes key from its owner only if its version is still
// expect; ErrStale means a concurrent update won the race and the caller
// must re-read before deciding to delete again (§III.D.3 applied to
// deletion).
func (c *Client) DeleteCAS(at vclock.Time, key string, expect uint64) (vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uint64(expect)
	done, _, err := c.caller.Call(c.Owner(key), "delete_cas", at, e.Bytes())
	wire.PutEncoder(e)
	return done, err
}

// SettleMulti applies entries with one "settle_multi" RPC per owning
// server — how a commit wave, an eviction round or an rmdir settles any
// number of keys in one round trip per cache server instead of one per
// key. It returns how many entries took effect and how many owners were
// contacted. An owner that cannot be reached fails only its own keys:
// the others' entries still apply and are counted, and one of the
// failures is returned.
func (c *Client) SettleMulti(at vclock.Time, entries []Settle) (applied, owners int, done vclock.Time, err error) {
	keys := make([]string, len(entries))
	for i, en := range entries {
		keys[i] = en.Key
	}
	var mu sync.Mutex
	owners, done = c.perOwner(at, keys, func(g dht.OwnerGroup) vclock.Time {
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx)))
		for _, i := range g.Idx {
			e.String(entries[i].Key)
			e.Byte(entries[i].action())
			e.Uvarint(entries[i].Seq)
		}
		gdone, resp, gerr := c.caller.Call(g.Owner, "settle_multi", at, e.Bytes())
		wire.PutEncoder(e)
		var n uint64
		if gerr == nil {
			d := wire.GetDecoder(resp)
			n = d.Uvarint()
			if gerr = finish(d); gerr == nil && n > uint64(len(g.Idx)) {
				gerr = fmt.Errorf("memcache: settle_multi applied %d of %d entries", n, len(g.Idx))
			}
		}
		mu.Lock()
		if gerr == nil {
			applied += int(n)
		} else if err == nil {
			err = gerr
		}
		mu.Unlock()
		return gdone
	})
	return applied, owners, done, err
}

// fanOut invokes fn once per ring member concurrently, starting each at
// the same virtual time (the broadcast a real client would issue in
// parallel) and merging completion times with vclock.Max. The first
// error wins; results are still awaited so no goroutine leaks.
func (c *Client) fanOut(at vclock.Time, fn func(addr string) (vclock.Time, error)) (vclock.Time, error) {
	members := c.ring.Members()
	if len(members) == 1 {
		done, err := fn(members[0])
		return vclock.Max(at, done), err
	}
	var wg sync.WaitGroup
	times := make([]vclock.Time, len(members))
	errs := make([]error, len(members))
	for i, addr := range members {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			times[i], errs[i] = fn(addr)
		}(i, addr)
	}
	wg.Wait()
	latest := at
	for i := range members {
		if errs[i] != nil {
			return times[i], errs[i]
		}
		latest = vclock.Max(latest, times[i])
	}
	return latest, nil
}

// FlushAll clears every server in the ring, fanning the broadcast out
// concurrently: the flush completes at the slowest member's virtual
// time, not the sum of all members'.
func (c *Client) FlushAll(at vclock.Time) (vclock.Time, error) {
	return c.fanOut(at, func(addr string) (vclock.Time, error) {
		done, _, err := c.caller.Call(addr, "flush_all", at, nil)
		return done, err
	})
}

// StatsAll aggregates stats across every server in the ring. The
// per-member requests run concurrently (same virtual start, vclock.Max
// merge) like FlushAll.
func (c *Client) StatsAll(at vclock.Time) (Stats, vclock.Time, error) {
	members := c.ring.Members()
	parts := make([]Stats, len(members))
	idx := make(map[string]int, len(members))
	for i, addr := range members {
		idx[addr] = i
	}
	latest, err := c.fanOut(at, func(addr string) (vclock.Time, error) {
		done, resp, err := c.caller.Call(addr, "stats", at, nil)
		if err != nil {
			return done, err
		}
		d := wire.NewDecoder(resp)
		st := Stats{
			Items:     d.Int64(),
			UsedBytes: d.Int64(),
			Hits:      d.Int64(),
			Misses:    d.Int64(),
			Evictions: d.Int64(),
		}
		if derr := d.Finish(); derr != nil {
			return done, derr
		}
		parts[idx[addr]] = st
		return done, nil
	})
	if err != nil {
		return Stats{}, latest, err
	}
	var total Stats
	for _, st := range parts {
		total.Items += st.Items
		total.UsedBytes += st.UsedBytes
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
	}
	return total, latest, nil
}
