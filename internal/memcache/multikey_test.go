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

// TestSettleMultiOneRoundTripPerOwner: one call settles a wave's worth
// of keys with one RPC per owning server, and every entry is judged by
// its own action, predicate and seq — never by a neighbour's.
func TestSettleMultiOneRoundTripPerOwner(t *testing.T) {
	c, servers := clusterEnv(t, 4)
	const n = 200
	var entries []Settle
	for i := 0; i < n; i++ {
		key, seq := fmt.Sprintf("/w/d/f%03d", i), uint64(i+1)
		var flags byte
		var en Settle
		switch i % 4 {
		case 0: // committed create: the flag clears, the entry stays
			flags, en = HdrDirty, Settle{Key: key, Seq: seq, Clear: true}
		case 1: // eviction of committed metadata
			flags, en = 0, Settle{Key: key, Cond: CondClean}
		case 2: // cleanup aimed at an older incarnation: must do nothing
			flags, en = HdrDirty, Settle{Key: key, Seq: seq - 1, Cond: CondSeq}
		case 3: // committed remove: the marker goes
			flags, en = HdrDirty|HdrRemoved, Settle{Key: key, Seq: seq, Cond: CondSeqRemoved}
		}
		if _, _, err := c.Set(0, key, makeVal(flags, seq), 0); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, en)
	}
	// An absent key and a repeated entry are no-ops, not errors: the
	// second occurrence finds the key already gone. A key that occurs
	// twice with different actions has them applied in input order —
	// f000 was cleared above and is clean by the time this delete runs.
	entries = append(entries,
		Settle{Key: "/w/d/absent", Seq: 9, Cond: CondSeq},
		entries[1], entries[1],
		Settle{Key: "/w/d/f000", Cond: CondClean})

	calls := c.Calls()
	applied, owners, done, err := c.SettleMulti(100, entries)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*n/4 + 1; applied != want {
		t.Fatalf("%d entries took effect, want %d", applied, want)
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
	if want := int64(n/2 - 1); items != want {
		t.Fatalf("%d items resident, want %d", items, want)
	}
	for i := 1; i < n; i++ {
		item, _, err := get(c, 0, entries[i].Key)
		switch i % 4 {
		case 0:
			if flags, seq, _, ok := ParseValueHeader(item.Value); err != nil || !ok || flags != 0 || seq != uint64(i+1) {
				t.Fatalf("%s after clear-dirty: flags=%#x seq=%d, %v", entries[i].Key, flags, seq, err)
			}
		case 2:
			if flags, seq, _, ok := ParseValueHeader(item.Value); err != nil || !ok || flags != HdrDirty || seq != uint64(i+1) {
				t.Fatalf("%s touched by a stale-seq delete: flags=%#x seq=%d, %v", entries[i].Key, flags, seq, err)
			}
		default:
			if !errors.Is(err, fsapi.ErrNotExist) {
				t.Fatalf("%s survived its delete: %v", entries[i].Key, err)
			}
		}
	}
	if _, _, err := get(c, 0, "/w/d/f000"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("f000 cleared then deleted-if-clean in one call: get = %v", err)
	}

	if applied, owners, _, err := c.SettleMulti(0, nil); applied != 0 || owners != 0 || err != nil {
		t.Fatalf("empty entry list = %d applied, %d owners, %v", applied, owners, err)
	}
}

// TestSettleMultiChargesPerKey: the batch saves round trips, not
// service time — n keys hold the server's worker for n × CacheOpCost.
func TestSettleMultiChargesPerKey(t *testing.T) {
	s := testServer(ServerConfig{})
	var entries []Settle
	for _, key := range []string{"/w/a", "/w/b", "/w/c", "/w/d", "/w/e"} {
		entries = append(entries, Settle{Key: key, Cond: CondClean})
	}
	served := s.ServedOps()
	_, done := s.SettleMulti(0, entries)
	if want := vclock.Time(0).Add(5 * vclock.Default().CacheOpCost); done != want {
		t.Fatalf("5-key batch done at %v, want %v", done, want)
	}
	if got := s.ServedOps() - served; got != 5 {
		t.Fatalf("served ops moved by %d, want 5", got)
	}
}

// TestSettleMultiMalformedFrameTouchesNothing: the handler decodes and
// checks the whole frame before the first key is touched, so a request
// that goes wrong at its last entry has settled none of the earlier
// ones.
func TestSettleMultiMalformedFrameTouchesNothing(t *testing.T) {
	s := testServer(ServerConfig{})
	s.Set(0, "/w/a", makeVal(0, 1), 0)
	s.Set(0, "/w/b", makeVal(HdrDirty, 2), 0)
	bus := rpc.NewBus()
	bus.Register("n/cache", s.Service())
	caller := rpc.NewCaller(bus, vclock.Default(), "n")

	frame := func(count uint64, tail func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		e.Uvarint(count)
		for _, en := range []Settle{{Key: "/w/a", Cond: CondClean}, {Key: "/w/b", Seq: 2, Clear: true}} {
			e.String(en.Key)
			e.Byte(en.action())
			e.Uvarint(en.Seq)
		}
		tail(e)
		return e.Bytes()
	}
	for name, body := range map[string][]byte{
		"unknown action": frame(3, func(e *wire.Encoder) { e.String("/w/a"); e.Byte(2 + byte(CondAlways)); e.Uvarint(0) }),
		"truncated":      frame(3, func(e *wire.Encoder) { e.String("/w/a") }),
		"trailing bytes": frame(2, func(e *wire.Encoder) { e.Byte(0) }),
		"count too big":  frame(1<<60, func(*wire.Encoder) {}),
	} {
		if _, resp, err := caller.Call("n/cache", "settle_multi", 0, body); err == nil || resp != nil {
			t.Fatalf("%s: reply %x, err %v", name, resp, err)
		}
		a, _, aerr := s.Get(0, "/w/a")
		b, _, berr := s.Get(0, "/w/b")
		if aerr != nil || berr != nil || b.Value[0]&HdrDirty == 0 || a.CAS != 1 || b.CAS != 2 {
			t.Fatalf("%s: rejected frame was partly applied: /w/a %+v %v, /w/b %+v %v", name, a, aerr, b, berr)
		}
	}
	// The same two entries in a well-formed frame do apply.
	if _, _, err := caller.Call("n/cache", "settle_multi", 0, frame(2, func(*wire.Encoder) {})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(0, "/w/a"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("/w/a after a well-formed frame: %v", err)
	}
	if b, _, _ := s.Get(0, "/w/b"); b.Value[0]&HdrDirty != 0 {
		t.Fatal("/w/b still dirty after a well-formed frame")
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
	if applied, _, _, err := c.SettleMulti(0, []Settle{{Key: "/w/a", Cond: CondClean}, {Key: "/w/b", Seq: 1, Clear: true}}); err == nil || applied != 0 {
		t.Fatalf("settle_multi on an empty ring = %d applied, %v", applied, err)
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
	var entries []Settle
	live := 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("/w/f%02d", i)
		if _, _, err := c.Set(0, key, makeVal(0, 1), 0); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		entries = append(entries, Settle{Key: key, Cond: CondClean})
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
	applied, owners, _, err := c.SettleMulti(0, entries)
	if err == nil {
		t.Fatal("settle_multi over a dead owner reported no error")
	}
	if applied != live || owners != 3 {
		t.Fatalf("settled %d keys via %d owners, want %d via 3", applied, owners, live)
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
		vals.Blob(makeVal(0, 0))
	}
	return token, at
}

// FuzzMultiKeyHandlers feeds raw bytes to the two multi-key handlers —
// the frames a peer controls, get_multi loading through fuzzLoad. Each
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
	// settle_multi frames: count, then key / action byte / seq per entry.
	settle := func(count uint64, entries ...Settle) []byte {
		e := wire.NewEncoder(64)
		e.Uvarint(count)
		for _, en := range entries {
			e.String(en.Key)
			e.Byte(en.action())
			e.Uvarint(en.Seq)
		}
		return e.Bytes()
	}
	wave := []Settle{{Key: "/w/b", Seq: 2, Clear: true}, {Key: "/w/a", Seq: 1, Cond: CondSeq},
		{Key: "/w/b", Cond: CondClean}, {Key: "/w/gone", Seq: 7, Cond: CondSeqRemoved}, {Key: "/w/a", Cond: CondAlways}}
	f.Add(settle(uint64(len(wave)), wave...))
	f.Add(settle(uint64(len(wave))+1, wave...))                      // count beyond the entries present
	f.Add(settle(1<<60, wave[0]))                                    // count far beyond the frame
	f.Add(append(settle(3, wave[:2]...), 3, '/', 'w', '/', 0xee, 0)) // third entry: unknown action
	// A frame of nothing but empty keys: a count as large as the frame and
	// honest about it. 1 MiB here; the TCP transport takes sixteen.
	f.Add(append(keys(true, 1<<20).Bytes(), make([]byte, 1<<20)...))

	// One reply encoder serves every input, as a client's pooled one
	// serves every call: what one reply leaves behind must not show in
	// the next.
	reply := wire.NewEncoder(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(ServerConfig{CapacityBytes: 1 << 20, Load: fuzzLoad, Current: fuzzCurrent})
		s.Set(0, "/w/a", makeVal(0, 1), 0)
		s.Set(0, "/w/b", makeVal(HdrDirty, 2), 0)
		bus := rpc.NewBus()
		bus.Register("fuzz/cache", s.Service())
		caller := rpc.NewCaller(bus, vclock.Default(), "fuzz")
		// settle_multi goes last: get_multi never changes a resident key,
		// so what it finds is what was set above.
		for _, method := range []string{"get_multi", "settle_multi"} {
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
	f.Add(get(true, "/w/new"))                    // a load and its add
	f.Add(get(true, "/w/err"))                    // a failed load
	f.Add(get(true, "/w/z"))                      // an overtaken load
	f.Add(store("/w/a", 0, makeVal(HdrDirty, 3))) // over /w/a
	f.Add(store("/w/a", 9, makeVal(0, 3)))
	f.Add(store("/w/new", 7, makeVal(0, 1)))
	f.Add(store("", 0, nil))
	f.Add(store("/w/a", 0, makeVal(0, 1))[:7]) // cut inside the fixed fields
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, '/'}) // a 2^63-byte key
	f.Add(append(store("/w/b", 0, nil), 0xfe, 0xff, 0xff, 0xff, 0x0f))             // trailing bytes
	incr := mutateBody("/w/a", mutateReq(rowIncr, []byte("v")))
	f.Add(incr)
	f.Add(mutateBody("/w/new", mutateReq(rowPut, makeVal(0, 1))))
	f.Add(mutateBody("/w/b", mutateReq(rowPeek, nil)))
	f.Add(incr[:len(incr)-2])                                        // a truncated event
	f.Add(mutateBody("/w/a", mutateReq(9, nil)))                     // an unknown kind
	f.Add(mutateBody("/w/a", []byte{rowIncr, 0xe8, 0x07, 'x'}))      // data longer than the frame
	f.Add(mutateBody("/w/c", mutateReq(rowIncr, nil)))               // a stored value with no header
	f.Add(append(mutateBody("/w/a", mutateReq(rowIncr, nil)), 0x01)) // trailing bytes

	reply := wire.NewEncoder(0) // every input's, as in FuzzMultiKeyHandlers
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(ServerConfig{CapacityBytes: 1 << 20, Row: testRow, Load: fuzzLoad, Current: fuzzCurrent})
		s.Set(0, "/w/a", makeVal(0, 1), 0)
		s.Set(0, "/w/b", makeVal(HdrDirty, 2), 0)
		s.Set(0, "/w/c", []byte("x"), 0)
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
