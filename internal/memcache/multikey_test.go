package memcache

import (
	"errors"
	"fmt"
	"runtime"
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

// TestMutateMultiOneRoundTripPerOwner: one call runs a wave's worth of
// keys through their rows with one RPC per owning server, and every entry
// is judged by its own request — never by a neighbour's.
func TestMutateMultiOneRoundTripPerOwner(t *testing.T) {
	c, servers := clusterEnv(t, 4)
	const n = 200
	var keys []string
	var reqs [][]byte
	for i := 0; i < n; i++ {
		key, seq := fmt.Sprintf("/w/d/f%03d", i), uint64(i+1)
		var req []byte
		switch i % 4 {
		case 0: // a store: the entry stays, one seq on
			req = mutateReq(rowIncr, nil)
		case 1: // a delete of the seq the key holds
			req = delIf(seq)
		case 2: // a delete aimed at an older seq: must do nothing
			req = delIf(seq - 1)
		case 3: // a row that answers and changes nothing
			req = mutateReq(rowPeek, nil)
		}
		if _, _, err := c.Set(0, key, makeVal(seq), 0); err != nil {
			t.Fatal(err)
		}
		keys, reqs = append(keys, key), append(reqs, req)
	}
	// An absent key and a repeated entry change nothing and are not errors:
	// the second occurrence finds the key already gone. A key that occurs
	// twice has its entries run in input order — f000 was stored at seq 2
	// above by the time this delete runs.
	keys = append(keys, "/w/d/absent", keys[1], keys[1], keys[0])
	reqs = append(reqs, delIf(9), reqs[1], reqs[1], delIf(2))

	requests := func() (n int64) {
		for _, s := range servers {
			n += s.res.Ops()
		}
		return n
	}
	calls := requests()
	changed, owners, done, err := mutateMulti(c, 100, keys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := n/2 + 1; changed != want {
		t.Fatalf("%d entries stored or deleted, want %d", changed, want)
	}
	if got := requests() - calls; owners != 4 || got != 4 {
		t.Fatalf("contacted %d owners in %d RPCs, want 4 and 4", owners, got)
	}
	if done <= 100 {
		t.Fatalf("completion time %v did not advance past the start", done)
	}
	var items int64
	for _, s := range servers {
		items += s.Stats().Items
	}
	if want := int64(3*n/4 - 1); items != want {
		t.Fatalf("%d items resident, want %d", items, want)
	}
	for i := 1; i < n; i++ {
		item, _, err := get(c, 0, keys[i])
		seq, _ := testSeq(item.Value)
		switch i % 4 {
		case 0:
			if err != nil || seq != uint64(i+2) {
				t.Fatalf("%s after its store: seq %d, %v", keys[i], seq, err)
			}
		case 1:
			if !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("%s survived its delete: %v", keys[i], err)
			}
		default:
			if err != nil || seq != uint64(i+1) {
				t.Fatalf("%s touched: seq %d, %v", keys[i], seq, err)
			}
		}
	}
	if _, _, err := get(c, 0, "/w/d/f000"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("f000 stored then deleted in one call: get = %v", err)
	}

	if changed, owners, _, err := mutateMulti(c, 0, nil, nil); changed != 0 || owners != 0 || err != nil {
		t.Fatalf("no entries = %d changed, %d owners, %v", changed, owners, err)
	}
}

// TestMutateMultiChargesPerKey: the batch saves round trips, not
// service time — n keys hold the server's worker for n × CacheOpCost.
func TestMutateMultiChargesPerKey(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow})
	e := wire.NewEncoder(64)
	e.Uvarint(5)
	for _, key := range []string{"/w/a", "/w/b", "/w/c", "/w/d", "/w/e"} {
		e.String(key)
		e.Blob(delIf(0))
	}
	served := s.ServedOps()
	done, err := s.mutateMulti(0, e.Bytes(), wire.NewEncoder(0))
	if want := vclock.Time(0).Add(5 * vclock.Default().CacheOpCost); err != nil || done != want {
		t.Fatalf("5-key batch done at %v (%v), want %v", done, err, want)
	}
	if got := s.ServedOps() - served; got != 5 {
		t.Fatalf("served ops moved by %d, want 5", got)
	}
}

// TestMutateMultiMalformedFrameTouchesNothing: the handler walks the
// whole frame before the first row runs, so a request that goes wrong at
// its last entry has changed none of the earlier ones, and a server with
// no row refuses a well-formed one.
func TestMutateMultiMalformedFrameTouchesNothing(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow})
	s.Set(0, "/w/a", makeVal(1), 0)
	s.Set(0, "/w/b", makeVal(2), 0)
	bus := rpc.NewBus()
	bus.Register("n/cache", s.Service())
	bus.Register("n/norow", testServer(ServerConfig{}).Service())
	caller := rpc.NewCaller(bus, vclock.Default(), "n")

	frame := func(count uint64, tail func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		e.Uvarint(count)
		e.String("/w/a")
		e.Blob(delIf(1))
		e.String("/w/b")
		e.Blob(mutateReq(rowIncr, nil))
		tail(e)
		return e.Bytes()
	}
	for name, body := range map[string][]byte{
		"truncated":      frame(3, func(e *wire.Encoder) { e.String("/w/a") }),
		"no request":     frame(3, func(e *wire.Encoder) { e.String("/w/a"); e.Uvarint(9) }),
		"trailing bytes": frame(2, func(e *wire.Encoder) { e.Byte(0) }),
		"count too big":  frame(1<<60, func(*wire.Encoder) {}),
	} {
		if _, resp, err := caller.Call("n/cache", "mutate_multi", 0, body); err == nil || resp != nil {
			t.Fatalf("%s: reply %x, err %v", name, resp, err)
		}
		a, _, aerr := s.Get(0, "/w/a")
		b, _, berr := s.Get(0, "/w/b")
		if aerr != nil || berr != nil || a.CAS != 1 || b.CAS != 2 {
			t.Fatalf("%s: rejected frame was partly applied: /w/a %+v %v, /w/b %+v %v", name, a, aerr, b, berr)
		}
	}
	if _, _, err := caller.Call("n/norow", "mutate_multi", 0, frame(2, func(*wire.Encoder) {})); !errors.Is(err, errNoRow) {
		t.Fatalf("a server without a row answered mutate_multi with %v", err)
	}
	// The same two entries in a well-formed frame do apply.
	if _, _, err := caller.Call("n/cache", "mutate_multi", 0, frame(2, func(*wire.Encoder) {})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(0, "/w/a"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("/w/a after a well-formed frame: %v", err)
	}
	if b, _, _ := s.Get(0, "/w/b"); b.CAS == 2 {
		t.Fatal("/w/b not stored by a well-formed frame")
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
	res, _ := getMulti(c, 0, keys)
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

// loadResult is one key of getMultiLoad: its answer, its value copied out
// of the reply, and its owner's error.
type loadResult struct {
	Result
	OwnerErr error
}

// getMultiLoad is Client.GetMulti with load set, collected into a slice.
func getMultiLoad(c *Client, keys []string) []loadResult {
	out := make([]loadResult, len(keys))
	c.GetMulti(0, keys, true, func(i int, r Result, err error) {
		r.Item.Value = append([]byte(nil), r.Item.Value...)
		out[i] = loadResult{Result: r, OwnerErr: err}
	})
	return out
}

// TestGetMultiLoadsItsMisses: a get_multi that asks to load answers every
// key as a get would, in key order, and each owner reads all of its
// misses with one call of its Load hook, adding them in one more service
// slot. A key that occurs twice is loaded once: its second copy answers
// Hit with the first's entry. A request whose keys all hit loads nothing.
func TestGetMultiLoadsItsMisses(t *testing.T) {
	bus, model, ring := rpc.NewBus(), vclock.Default(), dht.New(0)
	var servers []*Server
	loads := map[string][][]string{} // each owner's Load calls, by their keys
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("node%d/cache", i)
		s := NewServer(addr, ServerConfig{Model: model, Load: func(at vclock.Time, keys []string, vals *wire.Encoder) (uint64, vclock.Time) {
			loads[addr] = append(loads[addr], append([]string(nil), keys...))
			loadValues(keys, vals)
			return 0, at
		}})
		bus.Register(addr, s.Service())
		ring.Add(addr)
		servers = append(servers, s)
	}
	c := NewClient(rpc.NewCaller(bus, model, "node0"), ring)
	for i := 0; i < 8; i += 2 {
		if _, _, err := c.Set(0, fmt.Sprintf("/w/k%d", i), []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	for i := 0; i < 8; i++ {
		keys = append(keys, fmt.Sprintf("/w/k%d", i))
	}
	keys = append(keys, "/w/k1", "/w/gone", "/w/k6", "/w/k3")
	served := int64(0)
	for _, s := range servers {
		served += s.ServedOps()
	}
	res := getMultiLoad(c, keys)
	first := map[string]uint64{}
	for i, key := range keys {
		r := res[i]
		switch {
		case r.OwnerErr != nil:
			t.Fatalf("%s: %v", key, r.OwnerErr)
		case key == "/w/gone":
			if r.Status != Failed || !errors.Is(r.Err, fsapi.ErrNotExist) {
				t.Fatalf("%s = %+v, want Failed", key, r)
			}
		case (key[len(key)-1]-'0')%2 == 0:
			if r.Status != Hit || len(r.Item.Value) != 1 || r.Item.Value[0] != key[len(key)-1]-'0' {
				t.Fatalf("%s = %+v, want its Hit", key, r)
			}
		case first[key] == 0:
			if r.Status != Loaded || string(r.Item.Value) != "loaded "+key {
				t.Fatalf("%s = %+v, want Loaded", key, r)
			}
			first[key] = r.Item.CAS
		default:
			if r.Status != Hit || r.Item.CAS != first[key] || string(r.Item.Value) != "loaded "+key {
				t.Fatalf("second %s = %+v, want a Hit on the first's entry (cas %d)", key, r, first[key])
			}
		}
	}
	owners := map[string]bool{}
	for _, k := range keys {
		owners[ring.Lookup(k)] = true
	}
	loadingOwners := 0
	for addr, calls := range loads {
		loadingOwners++
		if len(calls) != 1 {
			t.Fatalf("%s loaded in %d calls, want one: %v", addr, len(calls), calls)
		}
	}
	for _, s := range servers {
		served -= s.ServedOps()
	}
	if want := int64(len(owners) + loadingOwners); -served != want {
		t.Fatalf("%d service slots for %d owners, %d of them loading; want %d", -served, len(owners), loadingOwners, want)
	}
	clear(loads)
	for i, r := range getMultiLoad(c, keys[:8]) {
		if r.Status != Hit || r.OwnerErr != nil {
			t.Fatalf("%s after the load = %+v", keys[i], r)
		}
	}
	if len(loads) != 0 {
		t.Fatalf("a request of hits loaded %v", loads)
	}
}

// TestGetMultiRefusedFrameLoadsNothing: a get_multi frame that is refused
// after its misses were looked up loads none of them.
func TestGetMultiRefusedFrameLoadsNothing(t *testing.T) {
	loads := 0
	s := testServer(ServerConfig{Load: func(at vclock.Time, keys []string, vals *wire.Encoder) (uint64, vclock.Time) {
		loads++
		loadValues(keys, vals)
		return 0, at
	}})
	bus := rpc.NewBus()
	bus.Register("n/cache", s.Service())
	caller := rpc.NewCaller(bus, vclock.Default(), "n")
	frame := func(count uint64, tail ...byte) []byte {
		e := wire.NewEncoder(64)
		e.Uvarint(count<<1 | 1) // the count, load set
		e.String("/w/a")
		e.String("/w/b")
		return append(e.Bytes(), tail...)
	}
	for name, body := range map[string][]byte{
		"truncated":      frame(3),
		"trailing bytes": frame(2, 0),
		"count too big":  frame(1 << 60),
	} {
		if _, resp, err := caller.Call("n/cache", "get_multi", 0, body); err == nil || resp != nil {
			t.Fatalf("%s: reply %x, err %v", name, resp, err)
		}
		if loads != 0 || s.Stats().Items != 0 {
			t.Fatalf("%s: %d loads, %d items after a refused frame", name, loads, s.Stats().Items)
		}
	}
	if _, _, err := caller.Call("n/cache", "get_multi", 0, frame(2)); err != nil || loads != 1 || s.Stats().Items != 2 {
		t.Fatalf("well-formed frame: %v, %d loads, %d items", err, loads, s.Stats().Items)
	}
}

func TestMultiKeyCallsOnEmptyRing(t *testing.T) {
	c := NewClient(rpc.NewCaller(rpc.NewBus(), vclock.Default(), "node0"), dht.New(0))
	keys := []string{"/w/a", "/w/b"}
	res, _ := getMulti(c, 0, keys)
	for i := range res {
		if res[i].Err == nil {
			t.Fatalf("get_multi on an empty ring resolved key %d: %+v", i, res[i])
		}
	}
	for i, r := range getMultiLoad(c, keys) {
		if r.OwnerErr == nil {
			t.Fatalf("get_multi with load on an empty ring resolved key %d: %+v", i, r)
		}
	}
	if changed, _, _, err := mutateMulti(c, 0, keys, [][]byte{delIf(0), delIf(1)}); err == nil || changed != 0 {
		t.Fatalf("mutate_multi on an empty ring = %d changed, %v", changed, err)
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
		bus.Register(addr, NewServer(addr, ServerConfig{Model: model, Row: testRow}).Service())
		ring.Add(addr)
	}
	c := NewClient(rpc.NewCaller(bus, model, "node0"), ring)
	var keys []string
	var reqs [][]byte
	live := 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("/w/f%02d", i)
		if _, _, err := c.Set(0, key, makeVal(1), 0); err != nil {
			t.Fatal(err)
		}
		keys, reqs = append(keys, key), append(reqs, delIf(1))
		if ring.Lookup(key) != dead {
			live++
		}
	}
	if live == 0 || live == len(keys) {
		t.Fatalf("%d of %d keys on live servers; need both sides", live, len(keys))
	}
	bus.Unregister(dead)

	res, _ := getMulti(c, 0, keys)
	for i, key := range keys {
		if onDead := ring.Lookup(key) == dead; onDead != (res[i].Err != nil) || !onDead && !res[i].Hit {
			t.Fatalf("%s (dead owner=%v) = %+v", key, onDead, res[i])
		}
	}
	changed, owners, _, err := mutateMulti(c, 0, keys, reqs)
	if err == nil {
		t.Fatal("mutate_multi over a dead owner reported no error")
	}
	if changed != live || owners != 3 {
		t.Fatalf("deleted %d keys via %d owners, want %d via 3", changed, owners, live)
	}
}

// fuzzCurrent is the fuzzed servers' guard: even tokens are current, so an
// add both lands and is refused.
func fuzzCurrent(token uint64) bool { return token%2 == 0 }

// fuzzLoad is the fuzzed servers' Load hook: /w/err fails, every other
// key loads as a clean value, under a token that is current when the
// first key sorts before /w/m.
func fuzzLoad(at vclock.Time, keys []string, vals *wire.Encoder) (uint64, vclock.Time) {
	var token uint64
	if keys[0] >= "/w/m" {
		token = 1
	}
	for _, key := range keys {
		if key == "/w/err" {
			vals.Byte(fsapi.CodeOf(fsapi.ErrClosed))
			vals.Blob(nil)
			continue
		}
		vals.Byte(fsapi.CodeOK)
		vals.Blob(makeVal(0))
	}
	return token, at
}

// FuzzMultiKeyHandlers feeds raw bytes to the two multi-key handlers —
// the frames a peer controls, get_multi loading through fuzzLoad and
// mutate_multi running the test row. Each
// must return an error or a well-formed reply without panicking; a
// corrupt count must be rejected before anything is sized by it (the
// allocation check is the fuzzer's own memory limit: a handler that
// trusted a 2^60 count would die); and a frame that is refused must have
// changed no key.
func FuzzMultiKeyHandlers(f *testing.F) {
	keys := func(load bool, count uint64, ks ...string) *wire.Encoder {
		e := wire.NewEncoder(64)
		flag := uint64(0) // the count's low bit
		if load {
			flag = 1
		}
		e.Uvarint(count<<1 | flag)
		for _, k := range ks {
			e.String(k)
		}
		return e
	}
	f.Add(keys(false, 2, "/w/a", "/w/missing").Bytes())
	f.Add(keys(true, 4, "/w/new", "/w/a", "/w/new", "/w/err").Bytes()) // loads, a duplicate, a failed read
	f.Add(keys(true, 2, "/w/z", "/w/a").Bytes())                       // an overtaken load
	f.Add(keys(true, 1<<60, "/w/a").Bytes())                           // count far beyond the frame
	f.Add(keys(true, 3, "/w/a", "/w/new").Bytes())                     // count beyond the keys present
	f.Add(keys(true, 0).Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	bare := wire.NewEncoder(64) // keys without their requests
	bare.Strings([]string{"/w/a", "/w/b", "/w/a"})
	f.Add(bare.Bytes())
	bare = wire.NewEncoder(64)
	bare.Byte(0xee)
	bare.Uvarint(1 << 40)
	bare.Uvarint(1 << 50)
	f.Add(bare.Bytes())
	// mutate_multi frames: count, then a key and a row's request per entry.
	mutate := func(count uint64, kv ...string) []byte {
		e := wire.NewEncoder(64)
		e.Uvarint(count)
		for i := 0; i+1 < len(kv); i += 2 {
			e.String(kv[i])
			e.Blob([]byte(kv[i+1]))
		}
		return e.Bytes()
	}
	wave := []string{"/w/b", string(mutateReq(rowIncr, []byte("v"))), "/w/a", string(delIf(1)),
		"/w/b", string(delIf(2)), "/w/gone", string(delIf(7)), "/w/a", string(mutateReq(rowPut, makeVal(3)))}
	f.Add(mutate(uint64(len(wave)/2), wave...))
	f.Add(mutate(uint64(len(wave)/2)+1, wave...))                                       // count beyond the entries present
	f.Add(mutate(1<<60, wave[:2]...))                                                   // count far beyond the frame
	f.Add(append(mutate(3, wave[:4]...), 3, '/', 'w', '/', 2, 0xee, 0))                 // third entry: a kind the row refuses
	f.Add(mutate(2, "/w/b", string(mutateReq(rowIncr, nil)), "/w/b", string(delIf(3)))) // a store, then its delete
	// A frame of nothing but empty keys: a count as large as the frame and
	// honest about it. 1 MiB here; the TCP transport takes sixteen.
	f.Add(append(keys(true, 1<<20).Bytes(), make([]byte, 1<<20)...))

	// One reply encoder serves every input, as a client's pooled one
	// serves every call: what one reply leaves behind must not show in
	// the next.
	reply := wire.NewEncoder(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(ServerConfig{CapacityBytes: 1 << 20, Row: testRow, Load: fuzzLoad, Current: fuzzCurrent})
		s.Set(0, "/w/a", makeVal(1), 0)
		s.Set(0, "/w/b", makeVal(2), 0)
		bus := rpc.NewBus()
		bus.Register("fuzz/cache", s.Service())
		caller := rpc.NewCaller(bus, vclock.Default(), "fuzz")
		// mutate_multi goes last: get_multi never changes a resident key,
		// so what it finds is what was set above.
		for _, method := range []string{"get_multi", "mutate_multi"} {
			var before, after runtime.MemStats
			reply.Reset()
			runtime.ReadMemStats(&before)
			_, err := caller.CallInto("fuzz/cache", method, 0, body, reply)
			runtime.ReadMemStats(&after)
			resp := reply.Bytes()
			// What a handler allocates follows what it decoded, not the
			// count it was told: a reply or an entry slice grown by
			// doubling stays within a small multiple of the frame.
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(64*len(body)+1<<16) {
				t.Fatalf("%s: allocated %d bytes for a %d-byte request", method, got, len(body))
			}
			if err != nil {
				if len(resp) != 0 {
					t.Fatalf("%s: error %v with a %d-byte reply", method, err, len(resp))
				}
				a, _, aerr := s.Get(0, "/w/a")
				b, _, berr := s.Get(0, "/w/b")
				if aerr != nil || berr != nil || a.CAS != 1 || b.CAS != 2 {
					t.Fatalf("%s refused the frame (%v) yet touched a key: /w/a %+v %v, /w/b %+v %v", method, err, a, aerr, b, berr)
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
			if method == "get_multi" {
				for i := uint64(0); i < n; i++ {
					readAnswer(d)
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

// FuzzSingleKeyHandlers feeds arbitrary bytes to the three single-key
// endpoints, get loading through fuzzLoad and mutate running the test row. Same contract as the multi-key
// ones: no panic, an error with no reply or a well-formed reply, nothing
// allocated beyond a small multiple of the frame, and a frame that is
// refused changes no key.
func FuzzSingleKeyHandlers(f *testing.F) {
	store := func(key string, flags uint32, value []byte) []byte {
		e := wire.NewEncoder(64)
		e.String(key)
		e.Uint32(flags)
		e.Blob(value)
		return e.Bytes()
	}
	get := func(load bool, key string) []byte {
		e := wire.NewEncoder(16)
		e.Bool(load)
		e.String(key)
		return e.Bytes()
	}
	f.Add(get(false, "/w/a"))
	f.Add(get(true, "/w/new"))          // a load and its add
	f.Add(get(true, "/w/err"))          // a failed load
	f.Add(get(true, "/w/z"))            // an overtaken load
	f.Add(store("/w/a", 0, makeVal(3))) // over /w/a
	f.Add(store("/w/a", 9, makeVal(3)))
	f.Add(store("/w/new", 7, makeVal(1)))
	f.Add(store("", 0, nil))
	f.Add(store("/w/a", 0, makeVal(1))[:7]) // cut inside the fixed fields
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, '/'}) // a 2^63-byte key
	f.Add(append(store("/w/b", 0, nil), 0xfe, 0xff, 0xff, 0xff, 0x0f))             // trailing bytes
	incr := mutateBody("/w/a", mutateReq(rowIncr, []byte("v")))
	f.Add(incr)
	f.Add(mutateBody("/w/new", mutateReq(rowPut, makeVal(1))))
	f.Add(mutateBody("/w/a", delIf(1)))
	f.Add(mutateBody("/w/b", mutateReq(rowPeek, nil)))
	f.Add(incr[:len(incr)-2])                                        // a truncated event
	f.Add(mutateBody("/w/a", mutateReq(9, nil)))                     // an unknown kind
	f.Add(mutateBody("/w/a", []byte{rowIncr, 0xe8, 0x07, 'x'}))      // data longer than the frame
	f.Add(mutateBody("/w/c", mutateReq(rowIncr, nil)))               // a stored value with no seq
	f.Add(append(mutateBody("/w/a", mutateReq(rowIncr, nil)), 0x01)) // trailing bytes

	reply := wire.NewEncoder(0) // every input's, as in FuzzMultiKeyHandlers
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(ServerConfig{CapacityBytes: 1 << 20, Row: testRow, Load: fuzzLoad, Current: fuzzCurrent})
		s.Set(0, "/w/a", makeVal(1), 0)
		s.Set(0, "/w/b", makeVal(2), 0)
		s.Set(0, "/w/c", []byte{0x80}, 0) // a uvarint that never ends
		keys := []string{"/w/a", "/w/b", "/w/c"}
		bus := rpc.NewBus()
		bus.Register("fuzz/cache", s.Service())
		caller := rpc.NewCaller(bus, vclock.Default(), "fuzz")
		for _, method := range []string{"get", "set", "mutate"} {
			before := make([]Item, len(keys))
			for i, k := range keys {
				before[i], _, _ = s.Get(0, k)
			}
			var mbefore, mafter runtime.MemStats
			reply.Reset()
			runtime.ReadMemStats(&mbefore)
			_, err := caller.CallInto("fuzz/cache", method, 0, body, reply)
			runtime.ReadMemStats(&mafter)
			resp := reply.Bytes()
			if got := mafter.TotalAlloc - mbefore.TotalAlloc; got > uint64(64*len(body)+1<<16) {
				t.Fatalf("%s: allocated %d bytes for a %d-byte request", method, got, len(body))
			}
			if err != nil {
				if len(resp) != 0 {
					t.Fatalf("%s: error %v with a %d-byte reply", method, err, len(resp))
				}
				for i, k := range keys {
					if after, _, aerr := s.Get(0, k); aerr != nil || after.CAS != before[i].CAS {
						t.Fatalf("%s failed (%v) yet touched %s: %+v %v", method, err, k, after, aerr)
					}
				}
				continue
			}
			d := wire.NewDecoder(resp)
			switch {
			case method == "get":
				readAnswer(d)
			case method == "mutate":
				if len(resp) > 0 { // rowPut answers nothing
					d.Uvarint()
				}
			default:
				if cas := d.Uint64(); cas == 0 {
					t.Fatalf("%s: stored under cas 0", method)
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

// TestGetMultiLoadsAtMostPresize: a request loads its first presize misses;
// the rest answer Miss, as without the load flag.
func TestGetMultiLoadsAtMostPresize(t *testing.T) {
	var loaded int
	s := testServer(ServerConfig{Load: func(at vclock.Time, keys []string, vals *wire.Encoder) (uint64, vclock.Time) {
		loaded += len(keys)
		loadValues(keys, vals)
		return 0, at
	}})
	bus := rpc.NewBus()
	bus.Register("n/cache", s.Service())
	c := NewClient(rpc.NewCaller(bus, vclock.Default(), "n"), dht.NewWithMembers(0, "n/cache"))
	keys := make([]string, presize+3)
	for i := range keys {
		keys[i] = fmt.Sprintf("/w/f%04d", i)
	}
	for i, r := range getMultiLoad(c, keys) {
		if want := map[bool]Status{true: Loaded, false: Miss}[i < presize]; r.Status != want || r.OwnerErr != nil {
			t.Fatalf("key %d = %+v, want status %d", i, r, want)
		}
	}
	if loaded != presize {
		t.Fatalf("%d keys loaded, want %d", loaded, presize)
	}
}
