package memcache

import (
	"errors"
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

// Owner returns the server address responsible for key.
func (c *Client) Owner(key string) string { return c.ring.Lookup(key) }

// Calls returns the number of RPCs this client has issued.
func (c *Client) Calls() int64 { return c.caller.Calls() }

// SetTrace tags subsequent cache RPCs with the span's trace context so
// the cache servers' handler timings land in the originating op's span.
func (c *Client) SetTrace(span uint64) { c.caller.SetTrace(span) }

// ClearTrace removes the trace context set by SetTrace.
func (c *Client) ClearTrace() { c.caller.ClearTrace() }

// Result is one key's answer to a get or a get_multi: its Status, the item
// for Hit and Loaded, the value alone for Unstored, and Err for Unstored
// (nil: the load was overtaken) and Failed.
type Result struct {
	Item   Item
	Status Status
	Err    error
}

// Get fetches key from its owner into reply, an encoder the caller owns
// (typically from wire.GetEncoder) and which Get resets first. The item's
// Value is a view into reply: it lives until the caller resets reply or
// puts it back, and a hit copies nothing on the way. With load set, a key
// the owner does not hold is read through its Load hook in the same round
// trip. err says the owner could not be reached or answered garbage; the
// Result says everything else, a plain miss included.
func (c *Client) Get(at vclock.Time, key string, load bool, reply *wire.Encoder) (Result, vclock.Time, error) {
	e := wire.GetEncoder()
	e.Bool(load)
	e.String(key)
	reply.Reset()
	done, err := c.call(c.Owner(key), "get", at, e, reply)
	if err != nil {
		return Result{}, done, err
	}
	d := wire.GetDecoder(reply.Bytes())
	r := readAnswer(d)
	if err := finish(d); err != nil {
		return Result{}, done, err
	}
	return r, done, nil
}

var errUnknownStatus = errors.New("memcache: unknown answer status")

// readAnswer reads one key's answer; its item and value are views of d's
// buffer.
func readAnswer(d *wire.Decoder) Result {
	r := Result{Status: Status(d.Byte())}
	switch r.Status {
	case Miss:
	case Hit, Loaded:
		r.Item = Item{CAS: d.Uint64(), Flags: d.Uint32(), Value: d.BlobView()}
	case Unstored:
		r.Err = fsapi.ErrOf(d.Byte(), "")
		r.Item.Value = d.BlobView()
	case Failed:
		r.Err = fsapi.ErrOf(d.Byte(), "")
	default:
		d.Fail(errUnknownStatus)
	}
	return r
}

// call sends one owner's request (pooled encoder e, released here) and
// appends the reply to reply.
func (c *Client) call(addr, method string, at vclock.Time, e, reply *wire.Encoder) (vclock.Time, error) {
	done, err := c.caller.CallInto(addr, method, at, e.Bytes(), reply)
	wire.PutEncoder(e)
	return done, err
}

// finish releases a reply decoder and reports a malformed tail.
func finish(d *wire.Decoder) error {
	err := d.Finish()
	wire.PutDecoder(d)
	return err
}

// ownerReply is one owner's share of a get_multi: the pooled encoder its
// request and then its reply are in, or why there is no reply.
type ownerReply struct {
	buf *wire.Encoder
	err error
}

// GetMulti fetches keys with one "get_multi" RPC per owning server,
// grouped by dht.GroupByOwner and fanned out from the same virtual
// instant (rpc.Caller.FanOut) — the batched read path's single round
// trip per owner, like every multi-key call here. With load set, each
// owner reads the keys it does not hold through its Load hook, all of
// them in one read, in the same round trip (Get's load, for many). Each
// owner's reply lands in a pooled encoder of its own, so over TCP the
// waits still overlap. Once every owner has answered, fn(i, r, err) gets
// keys[i]'s answer, as Get gives it, on the calling goroutine (answer). A
// dead or misbehaving owner fails only its own keys, with err: the other
// owners' keys still resolve.
func (c *Client) GetMulti(at vclock.Time, keys []string, load bool, fn func(i int, r Result, err error)) vclock.Time {
	groups := c.ring.GroupByOwner(keys)
	replies := make([]ownerReply, len(groups))
	var flag uint64 // the load flag, the count's low bit
	if load {
		flag = 1
	}
	for gi, g := range groups { // encoded here, the fan-out's closure stays small
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(g.Idx))<<1 | flag)
		for _, i := range g.Idx {
			e.String(keys[i])
		}
		replies[gi].buf = e
	}
	latest := c.caller.FanOut(at, len(groups), false, func(gi int) (done vclock.Time) {
		r := &replies[gi]
		req := r.buf
		r.buf = wire.GetEncoder()
		done, r.err = c.call(groups[gi].Owner, "get_multi", at, req, r.buf)
		return done
	})
	answer(groups, replies, fn)
	return latest
}

// answer hands out a get_multi's answers, once every owner has replied:
// fn(i, r, nil) for each key, one at a time, never concurrently;
// r.Item.Value is a view into the owner's reply and lives only until fn
// returns. Each reply is checked whole before its first answer is handed
// out, so a malformed one fails all of its keys, not the tail: an owner
// that could not be reached or answered garbage gets fn(i, Result{}, err)
// for each of its keys. The replies go back to the pool.
func answer(groups []dht.OwnerGroup, replies []ownerReply, fn func(i int, r Result, err error)) {
	for gi, g := range groups {
		r := &replies[gi]
		err := r.err
		if err == nil {
			if err = readAnswers(r.buf.Bytes(), g.Idx, nil); err == nil {
				readAnswers(r.buf.Bytes(), g.Idx, fn)
			}
		}
		if err != nil {
			for _, i := range g.Idx {
				fn(i, Result{}, err)
			}
		}
		wire.PutEncoder(r.buf)
	}
}

// readAnswers walks one owner's reply, a count and then the answers of the
// keys at positions idx, handing each to fn (nil: only check that the
// reply is well-formed).
func readAnswers(reply []byte, idx []int, fn func(i int, r Result, err error)) error {
	d := wire.GetDecoder(reply)
	if n := d.Uvarint(); n != uint64(len(idx)) {
		wire.PutDecoder(d)
		return fmt.Errorf("memcache: get_multi returned %d results for %d keys", n, len(idx))
	}
	for _, i := range idx {
		r := readAnswer(d)
		if fn != nil {
			fn(i, r, nil)
		}
	}
	return finish(d)
}

// Set unconditionally stores key.
func (c *Client) Set(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	e := wire.GetEncoder()
	e.String(key)
	e.Uint32(flags)
	e.Blob(value)
	reply := wire.GetEncoder()
	defer wire.PutEncoder(reply)
	done, err := c.call(c.Owner(key), "set", at, e, reply)
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
// failures is returned. Its scratch is pooled (settleCall), so a call
// allocates nothing of its own.
func (c *Client) SettleMulti(at vclock.Time, entries []Settle) (applied, owners int, done vclock.Time, err error) {
	s := settleCalls.Get().(*settleCall)
	s.c, s.at, s.entries = c, at, entries
	s.groups = c.ring.GroupInto(&s.grouping, len(entries), func(i int) string { return entries[i].Key })
	if cap(s.results) < len(s.groups) {
		s.results = make([]settleResult, len(s.groups))
	}
	s.results = s.results[:len(s.groups)]
	done = c.caller.FanOut(at, len(s.groups), false, s.send)
	for _, r := range s.results {
		if r.err == nil {
			applied += r.applied
		} else if err == nil {
			err = r.err
		}
	}
	owners = len(s.groups)
	// Every slot is written by its own call; the pool keeps no errors or
	// entries alive in between.
	clear(s.results)
	s.c, s.entries, s.groups = nil, nil, nil
	settleCalls.Put(s)
	return applied, owners, done, err
}

// settleCall is one SettleMulti's scratch: the grouping, one result slot
// per owner (each written by its own fan-out call, so no lock), and the
// fan-out's function, bound once per pooled call rather than per use.
type settleCall struct {
	c        *Client
	at       vclock.Time
	entries  []Settle
	grouping dht.Grouping
	groups   []dht.OwnerGroup
	results  []settleResult
	send     func(gi int) vclock.Time
}

// settleResult is one owner's share of a SettleMulti.
type settleResult struct {
	applied int
	err     error
}

var settleCalls = sync.Pool{New: func() any {
	s := new(settleCall)
	s.send = s.sendOwner
	return s
}}

// sendOwner sends owner gi's entries and fills its result slot.
func (s *settleCall) sendOwner(gi int) vclock.Time {
	g, entries := s.groups[gi], s.entries
	e := wire.GetEncoder()
	e.Uvarint(uint64(len(g.Idx)))
	for _, i := range g.Idx {
		e.String(entries[i].Key)
		e.Byte(entries[i].action())
		e.Uvarint(entries[i].Seq)
	}
	reply := wire.GetEncoder()
	done, err := s.c.call(g.Owner, "settle_multi", s.at, e, reply)
	var n uint64
	if err == nil {
		d := wire.GetDecoder(reply.Bytes())
		n = d.Uvarint()
		if err = finish(d); err == nil && n > uint64(len(g.Idx)) {
			err = fmt.Errorf("memcache: settle_multi applied %d of %d entries", n, len(g.Idx))
		}
	}
	wire.PutEncoder(reply)
	s.results[gi] = settleResult{applied: int(n), err: err}
	return done
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
