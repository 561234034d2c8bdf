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

// Get fetches key from its owner into reply, an encoder the caller owns
// (typically from wire.GetEncoder) and which Get resets first. The item's
// Value is a view into reply: it lives until the caller resets reply or
// puts it back, and a hit copies nothing on the way.
func (c *Client) Get(at vclock.Time, key string, reply *wire.Encoder) (Item, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	reply.Reset()
	done, err := c.caller.CallInto(c.Owner(key), "get", at, e.Bytes(), reply)
	wire.PutEncoder(e)
	if err != nil {
		return Item{}, done, err
	}
	d := wire.GetDecoder(reply.Bytes())
	item := Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.BlobView()}
	if err := finish(d); err != nil {
		return Item{}, done, err
	}
	return item, done, nil
}

// MultiResult is one key's result of Client.GetMulti: Hit/Item on
// success, Err when the key's owner could not be reached or answered
// garbage. A plain miss is Hit == false with a nil Err.
type MultiResult struct {
	Item Item
	Hit  bool
	Err  error
}

// call sends one owner's request (pooled encoder e, released here) and
// appends the reply to reply.
func (c *Client) call(addr, method string, at vclock.Time, e, reply *wire.Encoder) (vclock.Time, error) {
	done, err := c.caller.CallInto(addr, method, at, e.Bytes(), reply)
	wire.PutEncoder(e)
	return done, err
}

// counted opens a multi-key reply and checks that it counts want
// results. On success the caller reads the results from the returned
// decoder and hands it to finish.
func counted(reply []byte, method string, want int) (*wire.Decoder, error) {
	d := wire.GetDecoder(reply)
	if n := d.Uvarint(); n != uint64(want) {
		wire.PutDecoder(d)
		return nil, fmt.Errorf("memcache: %s returned %d results for %d keys", method, n, want)
	}
	return d, nil
}

// finish releases a reply decoder and reports a malformed tail.
func finish(d *wire.Decoder) error {
	err := d.Finish()
	wire.PutDecoder(d)
	return err
}

// ownerReply is one owner's answer to a multi-key call: the pooled
// encoder its reply landed in, or why there is none.
type ownerReply struct {
	buf *wire.Encoder
	err error
}

// GetMulti fetches keys with one "get_multi" RPC per owning server,
// grouped by dht.GroupByOwner and fanned out from the same virtual
// instant (rpc.Caller.FanOut) — the batched read path's single round
// trip per owner, like every multi-key call here. Each owner's reply
// lands in a pooled encoder of its own, so over TCP the waits still
// overlap. Once every owner has answered, fn(i, r) gets keys[i]'s result
// on the calling goroutine, one key at a time, never concurrently;
// r.Item.Value is a view into the owner's reply and lives only until fn
// returns. A dead or misbehaving owner fails only its own keys, with
// r.Err: the other owners' keys still resolve.
func (c *Client) GetMulti(at vclock.Time, keys []string, fn func(i int, r MultiResult)) vclock.Time {
	groups := c.ring.GroupByOwner(keys)
	replies := make([]ownerReply, len(groups))
	latest := c.caller.FanOut(at, len(groups), false, func(gi int) (done vclock.Time) {
		g := groups[gi]
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx)))
		for _, i := range g.Idx {
			e.String(keys[i])
		}
		r := &replies[gi]
		r.buf = wire.GetEncoder()
		done, r.err = c.call(g.Owner, "get_multi", at, e, r.buf)
		return done
	})
	for gi, g := range groups {
		r := &replies[gi]
		// The reply is checked whole before the first result is handed
		// out: a malformed one fails all of its keys, not the tail.
		err := r.err
		if err == nil {
			if err = readGetMulti(r.buf.Bytes(), g.Idx, nil); err == nil {
				readGetMulti(r.buf.Bytes(), g.Idx, fn)
			}
		}
		if err != nil {
			for _, i := range g.Idx {
				fn(i, MultiResult{Err: err})
			}
		}
		wire.PutEncoder(r.buf)
	}
	return latest
}

// readGetMulti walks one owner's get_multi reply, whose results are
// those of the keys at positions idx, handing each to fn (nil: only
// check that the reply is well-formed).
func readGetMulti(reply []byte, idx []int, fn func(i int, r MultiResult)) error {
	d, err := counted(reply, "get_multi", len(idx))
	if err != nil {
		return err
	}
	for _, i := range idx {
		var r MultiResult
		if r.Hit = d.Bool(); r.Hit {
			r.Item = Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.BlobView()}
		}
		if fn != nil {
			fn(i, r)
		}
	}
	return finish(d)
}

// AddMulti stores a batch of entries add-if-absent with one "add_multi"
// RPC per owning server (same grouping and fan-out as GetMulti) — the
// grouped cache warm. Results align with entries; per-entry ErrExist /
// ErrOutOfSpace mean "skip", a transport error marks the whole owner's
// slice.
func (c *Client) AddMulti(at vclock.Time, entries []AddEntry) ([]AddResult, vclock.Time) {
	out := make([]AddResult, len(entries))
	keys := make([]string, len(entries))
	for i, en := range entries {
		keys[i] = en.Key
	}
	groups := c.ring.GroupByOwner(keys)
	latest := c.caller.FanOut(at, len(groups), false, func(gi int) vclock.Time {
		g := groups[gi]
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx)))
		for _, i := range g.Idx {
			e.String(entries[i].Key)
			e.Uint32(entries[i].Flags)
			e.Blob(entries[i].Value)
		}
		reply := wire.GetEncoder()
		done, err := c.call(g.Owner, "add_multi", at, e, reply)
		var d *wire.Decoder
		if err == nil {
			d, err = counted(reply.Bytes(), "add_multi", len(g.Idx))
		}
		if err == nil {
			for _, i := range g.Idx {
				code := d.Byte()
				cas := d.Uint64()
				out[i] = AddResult{CAS: cas, Err: fsapi.ErrOf(code, "")}
			}
			err = finish(d)
		}
		wire.PutEncoder(reply)
		if err != nil {
			for _, i := range g.Idx {
				out[i] = AddResult{Err: err}
			}
		}
		return done
	})
	return out, latest
}

func (c *Client) storeOp(method string, at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uint32(flags)
	e.Blob(value)
	reply := wire.GetEncoder()
	defer wire.PutEncoder(reply)
	done, err := c.call(c.Owner(key), method, at, e, reply)
	if err != nil {
		return 0, done, err
	}
	d := wire.GetDecoder(reply.Bytes())
	cas := d.Uint64()
	if err := finish(d); err != nil {
		return 0, done, err
	}
	return cas, done, nil
}

// Set unconditionally stores key.
func (c *Client) Set(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	return c.storeOp("set", at, key, value, flags)
}

// Add stores key only if absent.
func (c *Client) Add(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	return c.storeOp("add", at, key, value, flags)
}

// Mutate runs req through the row of key's owner; its answer lands in reply.
func (c *Client) Mutate(at vclock.Time, key string, req []byte, reply *wire.Encoder) (vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Blob(req)
	reply.Reset()
	return c.call(c.Owner(key), "mutate", at, e, reply)
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
	groups := c.ring.GroupByOwner(keys)
	done = c.caller.FanOut(at, len(groups), false, func(gi int) vclock.Time {
		g := groups[gi]
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx)))
		for _, i := range g.Idx {
			e.String(entries[i].Key)
			e.Byte(entries[i].action())
			e.Uvarint(entries[i].Seq)
		}
		reply := wire.GetEncoder()
		gdone, gerr := c.call(g.Owner, "settle_multi", at, e, reply)
		var n uint64
		if gerr == nil {
			d := wire.GetDecoder(reply.Bytes())
			n = d.Uvarint()
			if gerr = finish(d); gerr == nil && n > uint64(len(g.Idx)) {
				gerr = fmt.Errorf("memcache: settle_multi applied %d of %d entries", n, len(g.Idx))
			}
		}
		wire.PutEncoder(reply)
		mu.Lock()
		if gerr == nil {
			applied += int(n)
		} else if err == nil {
			err = gerr
		}
		mu.Unlock()
		return gdone
	})
	return applied, len(groups), done, err
}

// broadcast sends method, without a body, to every ring member from the
// same virtual instant (the broadcast a real client would issue in
// parallel): it completes at the slowest member's virtual time, not the
// sum of all members'. The first member's error wins.
func (c *Client) broadcast(at vclock.Time, method string) (vclock.Time, error) {
	members := c.ring.Members()
	errs := make([]error, len(members))
	latest := c.caller.FanOut(at, len(members), false, func(i int) (done vclock.Time) {
		done, _, errs[i] = c.caller.Call(members[i], method, at, nil)
		return done
	})
	for _, err := range errs {
		if err != nil {
			return latest, err
		}
	}
	return latest, nil
}

// FlushAll clears every server in the ring.
func (c *Client) FlushAll(at vclock.Time) (vclock.Time, error) {
	return c.broadcast(at, "flush_all")
}
