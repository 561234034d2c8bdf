package rpc_test

import (
	"fmt"
	"sync"
	"testing"

	"pacon/internal/dht"
	"pacon/internal/memcache"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// cacheNet registers n memcache servers on net and returns a client over
// them, with keys[i] holding vals[i].
func cacheNet(t *testing.T, net rpc.Network, n int, keys []string, vals [][]byte) *memcache.Client {
	t.Helper()
	model := vclock.Default()
	ring := dht.New(0)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("node%d/cache", i)
		net.Register(addr, memcache.NewServer(addr, memcache.ServerConfig{Model: model}).Service())
		ring.Add(addr)
	}
	c := memcache.NewClient(rpc.NewCaller(net, model, "node0"), ring)
	for i, key := range keys {
		if _, _, err := c.Set(0, key, vals[i], uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestReusedReplyShowsNoStaleTail: one reply encoder serves a get_multi
// and then a get on each transport. The get's reply is shorter and lands
// over the bytes the get_multi left in the buffer's capacity; decoding
// it must see exactly the get's reply — the same bytes as a fresh
// encoder's, and none of the earlier tail.
func TestReusedReplyShowsNoStaleTail(t *testing.T) {
	keys := []string{"/w/a", "/w/b", "/w/c", "/w/d"}
	vals := [][]byte{[]byte("a long value for the multi-key reply"), []byte("b"), []byte("c"), []byte("d")}
	tcp := rpc.NewTCPNetwork()
	defer tcp.Close()
	for name, net := range map[string]rpc.Network{"bus": rpc.NewBus(), "tcp": tcp} {
		cacheNet(t, net, 1, keys, vals)
		caller := rpc.NewCaller(net, vclock.Default(), "node0")
		req := wire.NewEncoder(64)
		req.Uvarint(uint64(len(keys)) << 1) // the count; its low bit, load, clear
		for _, k := range keys {
			req.String(k)
		}
		reply := wire.NewEncoder(0)
		if _, err := caller.CallInto("node0/cache", "get_multi", 0, req.Bytes(), reply); err != nil {
			t.Fatal(err)
		}
		multiLen := reply.Len()
		req.Reset()
		req.Bool(false) // load nothing
		req.String("/w/b")
		reply.Reset()
		if _, err := caller.CallInto("node0/cache", "get", 0, req.Bytes(), reply); err != nil {
			t.Fatal(err)
		}
		fresh := wire.NewEncoder(0)
		if _, err := caller.CallInto("node0/cache", "get", 0, req.Bytes(), fresh); err != nil {
			t.Fatal(err)
		}
		if reply.Len() >= multiLen || string(reply.Bytes()) != string(fresh.Bytes()) {
			t.Fatalf("%s: reused reply %x (get_multi left %d bytes), fresh reply %x", name, reply.Bytes(), multiLen, fresh.Bytes())
		}
		d := wire.NewDecoder(reply.Bytes())
		d.Byte() // the answer's status
		d.Uint64()
		flags := d.Uint32()
		v := d.BlobView()
		if err := d.Finish(); err != nil || flags != 1 || string(v) != "b" {
			t.Fatalf("%s: get decoded flags %d, value %q, err %v", name, flags, v, err)
		}
		// The same through the cache client: a get_multi, then a Get into
		// one encoder reused from before.
		c := memcache.NewClient(caller, dht.NewWithMembers(0, "node0/cache"))
		c.GetMulti(0, keys, false, func(int, memcache.Result, error) {})
		res, _, err := c.Get(0, "/w/c", false, reply)
		if err != nil || res.Status != memcache.Hit || string(res.Item.Value) != "c" || res.Item.Flags != 2 {
			t.Fatalf("%s: Get into a reused encoder = %+v, %v", name, res, err)
		}
	}
}

// TestGetMultiOverTCPFourOwners: a get_multi fan-out to four owners over
// real sockets — each owner's reply in its own buffer, the waits
// overlapping on goroutines — from several callers at once (make check
// runs this under -race). Every key's value arrives intact, on the
// calling goroutine.
func TestGetMultiOverTCPFourOwners(t *testing.T) {
	tcp := rpc.NewTCPNetwork()
	defer tcp.Close()
	keys := make([]string, 64)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("/w/k%02d", i)
		vals[i] = []byte(fmt.Sprintf("value of %s", keys[i]))
	}
	c := cacheNet(t, tcp, 4, keys, vals)
	owners := map[string]bool{}
	for _, k := range keys {
		owners[c.Owner(k)] = true
	}
	if len(owners) != 4 {
		t.Fatalf("the keys reach %d owners, want 4", len(owners))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				seen := make([]bool, len(keys))
				c.GetMulti(0, keys, false, func(i int, r memcache.Result, err error) {
					if err != nil || r.Status != memcache.Hit || string(r.Item.Value) != string(vals[i]) || seen[i] {
						t.Errorf("key %s: %+v (seen before: %v)", keys[i], r, seen[i])
					}
					seen[i] = true
				})
				for i, ok := range seen {
					if !ok {
						t.Errorf("no result for %s", keys[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}
