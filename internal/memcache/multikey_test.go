package memcache

import (
	"errors"
	"fmt"
	"testing"

	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// The multi-key client calls share one owner grouping and one fan-out;
// these tests pin what the grouping must preserve (input positions,
// duplicates) and how each call degrades (empty ring, dead owner).

func TestDeleteIfMultiOneRoundTripPerOwner(t *testing.T) {
	c, servers := clusterEnv(t, 4)
	keys := make([]string, 0, 203)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("/w/d/f%03d", i)
		flags := byte(0)
		if i%4 == 0 {
			flags = hdrDirty // primary copies: CondClean must keep them
		}
		if _, _, err := c.Set(0, key, makeVal(flags, uint64(i)), 0); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	// An absent key and a duplicate are no-ops, not errors: the second
	// occurrence finds the key already gone.
	keys = append(keys, "/w/d/absent", keys[1], keys[1])

	calls := c.Calls()
	deleted, owners, done, err := c.DeleteIfMulti(100, keys, CondClean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 150 {
		t.Fatalf("deleted %d keys, want the 150 clean ones", deleted)
	}
	if got := c.Calls() - calls; owners != 4 || got != 4 {
		t.Fatalf("contacted %d owners in %d RPCs, want 4 and 4", owners, got)
	}
	if done <= 100 {
		t.Fatalf("completion time %v did not advance past the start", done)
	}
	var items int64
	for _, s := range servers {
		items += s.Stats().Items
	}
	if items != 50 {
		t.Fatalf("%d items resident, want the 50 dirty ones", items)
	}
	for i := 0; i < 200; i++ {
		_, _, err := c.Get(0, keys[i])
		if dirty := i%4 == 0; dirty != (err == nil) {
			t.Fatalf("%s (dirty=%v): get = %v", keys[i], dirty, err)
		}
	}

	if deleted, owners, _, err := c.DeleteIfMulti(0, nil, CondClean, 0); deleted != 0 || owners != 0 || err != nil {
		t.Fatalf("empty key list = %d deleted, %d owners, %v", deleted, owners, err)
	}
}

// TestDeleteIfMultiChargesPerKey: the batch saves round trips, not
// service time — n keys hold the server's worker for n × CacheOpCost.
func TestDeleteIfMultiChargesPerKey(t *testing.T) {
	s := testServer(ServerConfig{})
	keys := []string{"/w/a", "/w/b", "/w/c", "/w/d", "/w/e"}
	served := s.ServedOps()
	_, done := s.DeleteIfMulti(0, keys, CondClean, 0)
	if want := vclock.Time(0).Add(5 * vclock.Default().CacheOpCost); done != want {
		t.Fatalf("5-key batch done at %v, want %v", done, want)
	}
	if got := s.ServedOps() - served; got != 5 {
		t.Fatalf("served ops moved by %d, want 5", got)
	}
}

func TestGetMultiDuplicatesAndOrder(t *testing.T) {
	c, _ := clusterEnv(t, 4)
	for i := 0; i < 8; i++ {
		if _, _, err := c.Set(0, fmt.Sprintf("/w/k%d", i), []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys := []string{"/w/k3", "/w/miss", "/w/k0", "/w/k3", "/w/k7", "/w/k3", "/w/k0"}
	res, _ := c.GetMulti(0, keys)
	for i, key := range keys {
		if key == "/w/miss" {
			if res[i].Hit || res[i].Err != nil {
				t.Fatalf("miss at %d = %+v", i, res[i])
			}
			continue
		}
		want := key[len(key)-1] - '0'
		if !res[i].Hit || len(res[i].Item.Value) != 1 || res[i].Item.Value[0] != want {
			t.Fatalf("result %d for %s = %+v", i, key, res[i])
		}
	}
}

func TestAddMultiDuplicateKey(t *testing.T) {
	c, _ := clusterEnv(t, 4)
	res, _ := c.AddMulti(0, []AddEntry{
		{Key: "/w/x", Value: []byte("first")},
		{Key: "/w/y", Value: []byte("other")},
		{Key: "/w/x", Value: []byte("second")},
	})
	if res[0].Err != nil || res[1].Err != nil || !errors.Is(res[2].Err, fsapi.ErrExist) {
		t.Fatalf("results = %+v, want the duplicate's second occurrence to lose with ErrExist", res)
	}
	if item, _, err := c.Get(0, "/w/x"); err != nil || string(item.Value) != "first" {
		t.Fatalf("/w/x = %q, %v: occurrences were not applied in input order", item.Value, err)
	}
}

func TestMultiKeyCallsOnEmptyRing(t *testing.T) {
	c := NewClient(rpc.NewCaller(rpc.NewBus(), vclock.Default(), "node0"), dht.New(0))
	keys := []string{"/w/a", "/w/b"}
	res, _ := c.GetMulti(0, keys)
	for i := range res {
		if res[i].Err == nil {
			t.Fatalf("get_multi on an empty ring resolved key %d: %+v", i, res[i])
		}
	}
	adds, _ := c.AddMulti(0, []AddEntry{{Key: "/w/a"}, {Key: "/w/b"}})
	for i := range adds {
		if adds[i].Err == nil {
			t.Fatalf("add_multi on an empty ring stored entry %d", i)
		}
	}
	if deleted, _, _, err := c.DeleteIfMulti(0, keys, CondClean, 0); err == nil || deleted != 0 {
		t.Fatalf("delete_if_multi on an empty ring = %d deleted, %v", deleted, err)
	}
}

// TestMultiKeyCallsSurviveDeadOwner: an unreachable server fails only
// its own keys — the other owners' keys still resolve and still delete.
func TestMultiKeyCallsSurviveDeadOwner(t *testing.T) {
	bus := rpc.NewBus()
	model := vclock.Default()
	ring := dht.New(0)
	const dead = "node1/cache"
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("node%d/cache", i)
		bus.Register(addr, NewServer(addr, ServerConfig{Model: model}).Service())
		ring.Add(addr)
	}
	c := NewClient(rpc.NewCaller(bus, model, "node0"), ring)
	var keys []string
	live := 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("/w/f%02d", i)
		if _, _, err := c.Set(0, key, makeVal(0, 1), 0); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		if ring.Lookup(key) != dead {
			live++
		}
	}
	if live == 0 || live == len(keys) {
		t.Fatalf("%d of %d keys on live servers; need both sides", live, len(keys))
	}
	bus.Unregister(dead)

	res, _ := c.GetMulti(0, keys)
	for i, key := range keys {
		if onDead := ring.Lookup(key) == dead; onDead != (res[i].Err != nil) || !onDead && !res[i].Hit {
			t.Fatalf("%s (dead owner=%v) = %+v", key, onDead, res[i])
		}
	}
	deleted, owners, _, err := c.DeleteIfMulti(0, keys, CondClean, 0)
	if err == nil {
		t.Fatal("delete_if_multi over a dead owner reported no error")
	}
	if deleted != live || owners != 3 {
		t.Fatalf("deleted %d keys via %d owners, want %d via 3", deleted, owners, live)
	}
}

// FuzzMultiKeyHandlers feeds raw bytes to the three multi-key handlers —
// the frames a peer controls. Each must return an error or a
// well-formed reply without panicking; a corrupt count must be rejected
// before anything is sized by it (the allocation check is the fuzzer's
// own memory limit: a handler that trusted a 2^60 count would die).
func FuzzMultiKeyHandlers(f *testing.F) {
	keys := func(count uint64, ks ...string) *wire.Encoder {
		e := wire.NewEncoder(64)
		e.Uvarint(count)
		for _, k := range ks {
			e.String(k)
		}
		return e
	}
	f.Add(keys(2, "/w/a", "/w/missing").Bytes())
	f.Add(keys(1<<60, "/w/a").Bytes()) // count far beyond the frame
	f.Add(keys(3, "/w/a").Bytes())     // count beyond the keys present
	f.Add(keys(0).Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	add := wire.NewEncoder(64)
	add.Uvarint(1)
	add.String("/w/new")
	add.Uint32(7)
	add.Blob(makeVal(0, 1))
	f.Add(add.Bytes())
	del := wire.NewEncoder(64)
	del.Byte(byte(CondClean))
	del.Uvarint(0)
	del.Strings([]string{"/w/a", "/w/b", "/w/a"})
	f.Add(del.Bytes())
	del = wire.NewEncoder(64)
	del.Byte(0xee) // unknown predicate
	del.Uvarint(1 << 40)
	del.Uvarint(1 << 50)
	f.Add(del.Bytes())

	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(ServerConfig{CapacityBytes: 1 << 20})
		s.Set(0, "/w/a", makeVal(0, 1), 0)
		s.Set(0, "/w/b", makeVal(hdrDirty, 2), 0)
		bus := rpc.NewBus()
		bus.Register("fuzz/cache", s.Service())
		caller := rpc.NewCaller(bus, vclock.Default(), "fuzz")
		for _, method := range []string{"get_multi", "add_multi", "delete_if_multi"} {
			_, resp, err := caller.Call("fuzz/cache", method, 0, body)
			if err != nil {
				if resp != nil {
					t.Fatalf("%s: error %v with a %d-byte reply", method, err, len(resp))
				}
				continue
			}
			// A handler sizes its reply by what it decoded, and every
			// decoded key or entry consumed at least one request byte.
			if len(resp) > 16+128*len(body)+(1<<10) {
				t.Fatalf("%s: %d-byte reply to a %d-byte request", method, len(resp), len(body))
			}
			d := wire.NewDecoder(resp)
			n := d.Uvarint()
			if n > uint64(len(body)) {
				t.Fatalf("%s: reply counts %d results for a %d-byte request", method, n, len(body))
			}
			switch method {
			case "get_multi":
				for i := uint64(0); i < n; i++ {
					if d.Bool() {
						d.Uint64()
						d.Uint32()
						d.BlobView()
					}
				}
			case "add_multi":
				for i := uint64(0); i < n; i++ {
					d.Byte()
					d.Uint64()
				}
			}
			if err := d.Finish(); err != nil {
				t.Fatalf("%s: malformed reply: %v", method, err)
			}
		}
		if s.Stats().UsedBytes < 0 {
			t.Fatal("byte accounting went negative")
		}
	})
}
