package memcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

func testServer(cfg ServerConfig) *Server {
	cfg.Model = vclock.Default()
	return NewServer("cache-test", cfg)
}

// Set unconditionally stores key and returns the new CAS version: the
// in-process form of the "set" endpoint, for the tests.
func (s *Server) Set(at vclock.Time, key string, value []byte, flags uint32) (uint64, vclock.Time, error) {
	done := s.acquire(at)
	cas, err := s.store(key, value, flags, storeSet, 0)
	return cas, done, err
}

func TestServerSetGetDelete(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow})
	cas, _, err := s.Set(0, "/a/b", makeVal(1), 7)
	if err != nil || cas == 0 {
		t.Fatalf("set: cas=%d err=%v", cas, err)
	}
	item, _, err := s.Get(0, "/a/b")
	if err != nil || string(item.Value) != string(makeVal(1)) || item.Flags != 7 || item.CAS != cas {
		t.Fatalf("get = %+v err=%v", item, err)
	}
	del := func() bool {
		t.Helper()
		reply := wire.NewEncoder(0)
		if _, err := s.mutateMulti(0, append([]byte{1}, mutateBody("/a/b", delIf(1))...), reply); err != nil {
			t.Fatal(err)
		}
		return reply.Bytes()[0] == 1
	}
	if !del() {
		t.Fatal("delete did nothing")
	}
	if _, _, err := s.Get(0, "/a/b"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("get after delete = %v", err)
	}
	if del() {
		t.Fatal("double delete reported deleted")
	}
	// A delete releases the item's bytes and the item.
	if st := s.Stats(); st.UsedBytes != 0 || st.Items != 0 {
		t.Fatalf("usage after the delete = %+v", st)
	}
}

func TestServerAddSemantics(t *testing.T) {
	s := testServer(ServerConfig{})
	if _, _, err := s.Add(0, "k", []byte("first"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Add(0, "k", []byte("second"), 0); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("second add = %v, want ErrExist", err)
	}
	item, _, _ := s.Get(0, "k")
	if string(item.Value) != "first" {
		t.Fatal("add overwrote existing value")
	}
}

func TestServerCASSemantics(t *testing.T) {
	s := testServer(ServerConfig{})
	cas1, _, _ := s.Set(0, "k", []byte("v1"), 0)
	cas2, _, err := s.CAS(0, "k", []byte("v2"), 0, cas1)
	if err != nil || cas2 <= cas1 {
		t.Fatalf("cas: %d err=%v", cas2, err)
	}
	// Retrying with the stale version must fail.
	if _, _, err := s.CAS(0, "k", []byte("v3"), 0, cas1); !errors.Is(err, fsapi.ErrStale) {
		t.Fatalf("stale cas = %v", err)
	}
	// CAS on a missing key reports ErrNotExist.
	if _, _, err := s.CAS(0, "ghost", []byte("v"), 0, 1); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("cas missing = %v", err)
	}
	item, _, _ := s.Get(0, "k")
	if string(item.Value) != "v2" {
		t.Fatalf("value = %q", item.Value)
	}
}

// The lock-free update loop from paper §III.D.3: concurrent writers CAS
// until they win; every increment must land exactly once.
func TestCASRetryLoopLinearizes(t *testing.T) {
	s := testServer(ServerConfig{})
	s.Set(0, "counter", []byte{0, 0, 0, 0}, 0)
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				for {
					item, _, err := s.Get(0, "counter")
					if err != nil {
						t.Error(err)
						return
					}
					n := uint32(item.Value[0]) | uint32(item.Value[1])<<8 | uint32(item.Value[2])<<16 | uint32(item.Value[3])<<24
					n++
					nv := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
					if _, _, err := s.CAS(0, "counter", nv, 0, item.CAS); err == nil {
						break
					} else if !errors.Is(err, fsapi.ErrStale) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	item, _, _ := s.Get(0, "counter")
	n := uint32(item.Value[0]) | uint32(item.Value[1])<<8 | uint32(item.Value[2])<<16 | uint32(item.Value[3])<<24
	if n != writers*perWriter {
		t.Fatalf("counter = %d, want %d", n, writers*perWriter)
	}
}

// The same increments through mutate: the owner runs the row under the
// key's lock, so there is no retry and every increment lands exactly once.
func TestMutateLinearizes(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow})
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := wire.NewEncoder(0)
			for i := 0; i < perWriter; i++ {
				reply.Reset()
				if _, err := s.mutate(0, mutateBody("counter", mutateReq(rowIncr, nil)), reply); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	item, _, _ := s.Get(0, "counter")
	if n, ok := testSeq(item.Value); !ok || n != writers*perWriter {
		t.Fatalf("counter = %d, want %d", n, writers*perWriter)
	}
}

// TestMutateStoresOnlyWhatTheRowStores: an answer without a store, a full
// cache and a row's error leave the key as it was, and a failed mutate
// answers nothing; a server without a row refuses every mutate.
func TestMutateStoresOnlyWhatTheRowStores(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow, CapacityBytes: 200})
	bus := rpc.NewBus()
	bus.Register("n/cache", s.Service())
	bus.Register("n/norow", testServer(ServerConfig{}).Service())
	caller := rpc.NewCaller(bus, vclock.Default(), "n")
	reply := wire.NewEncoder(0)
	call := func(addr string, req []byte) error {
		reply.Reset()
		_, err := caller.CallInto(addr, "mutate", 0, mutateBody("k", req), reply)
		return err
	}
	if err := call("n/cache", mutateReq(rowIncr, nil)); err != nil {
		t.Fatal(err)
	}
	before, _, _ := s.Get(0, "k")
	for _, tc := range []struct {
		name string
		req  []byte
		err  error
	}{
		{"peek", mutateReq(rowPeek, nil), nil},
		{"full cache", mutateReq(rowIncr, make([]byte, 200)), fsapi.ErrOutOfSpace},
		{"unknown kind", mutateReq(9, nil), errUnknownKind},
		{"truncated", mutateReq(rowIncr, []byte("abc"))[:1], wire.ErrTruncated},
	} {
		err := call("n/cache", tc.req)
		if (err == nil) != (tc.err == nil) || (tc.err == fsapi.ErrOutOfSpace && !errors.Is(err, tc.err)) || (err != nil) != (reply.Len() == 0) {
			t.Fatalf("%s: %v with a %d-byte reply, want %v", tc.name, err, reply.Len(), tc.err)
		}
		if after, _, _ := s.Get(0, "k"); after.CAS != before.CAS {
			t.Fatalf("%s stored", tc.name)
		}
	}
	if err := call("n/norow", mutateReq(rowPeek, nil)); err == nil {
		t.Fatal("a server without a row took a mutate")
	}
}

func TestCapacityRejectWithoutLRU(t *testing.T) {
	s := testServer(ServerConfig{CapacityBytes: 400})
	if _, _, err := s.Set(0, "a", make([]byte, 200), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Set(0, "b", make([]byte, 200), 0); !errors.Is(err, fsapi.ErrOutOfSpace) {
		t.Fatalf("over-capacity set = %v, want ErrOutOfSpace", err)
	}
	// Replacing the existing value within budget still works.
	if _, _, err := s.Set(0, "a", make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	// Over the budget — stores racing in other shards can leave the count
	// there — a store that takes no more room is still made; one that grows
	// is refused.
	s.used.Add(400)
	if _, _, err := s.Set(0, "a", make([]byte, 100), 0); err != nil {
		t.Fatalf("same-size store over the budget = %v", err)
	}
	if _, _, err := s.Set(0, "a", make([]byte, 101), 0); !errors.Is(err, fsapi.ErrOutOfSpace) {
		t.Fatalf("growing store over the budget = %v, want ErrOutOfSpace", err)
	}
}

func TestFlushAllAndStats(t *testing.T) {
	s := testServer(ServerConfig{})
	s.Set(0, "a", []byte("1"), 0)
	s.Set(0, "b", []byte("2"), 0)
	s.Get(0, "a")
	s.Get(0, "ghost")
	st := s.Stats()
	if st.Items != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.FlushAll(0)
	st = s.Stats()
	if st.Items != 0 || st.UsedBytes != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
}

func TestServerVirtualTimeQueueing(t *testing.T) {
	model := vclock.Default()
	s := NewServer("q", ServerConfig{Model: model, Workers: 1})
	_, d1, _ := s.Set(0, "a", nil, 0)
	_, d2, _ := s.Set(0, "b", nil, 0)
	if d1 != vclock.Time(model.CacheOpCost) {
		t.Fatalf("d1 = %v", d1)
	}
	if d2 != vclock.Time(2*model.CacheOpCost) {
		t.Fatalf("d2 = %v, want serialized", d2)
	}
}

// clusterEnv builds an n-server cache cluster on an in-proc bus.
func clusterEnv(t testing.TB, n int) (*Client, []*Server) {
	t.Helper()
	bus := rpc.NewBus()
	model := vclock.Default()
	ring := dht.New(0)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("node%d/cache", i)
		servers[i] = NewServer(addr, ServerConfig{Model: model, Row: testRow})
		bus.Register(addr, servers[i].Service())
		ring.Add(addr)
	}
	caller := rpc.NewCaller(bus, model, "node0")
	return NewClient(caller, ring), servers
}

func TestClientRoutesByRing(t *testing.T) {
	c, servers := clusterEnv(t, 4)
	const n = 400
	for i := 0; i < n; i++ {
		if _, _, err := c.Set(0, fmt.Sprintf("/w/f%03d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Every server should hold some keys, and the total must be n.
	total := int64(0)
	for i, s := range servers {
		st := s.Stats()
		if st.Items == 0 {
			t.Fatalf("server %d got no keys — ring not distributing", i)
		}
		total += st.Items
	}
	if total != n {
		t.Fatalf("total items = %d, want %d", total, n)
	}
	// Reads find every key.
	for i := 0; i < n; i++ {
		item, _, err := get(c, 0, fmt.Sprintf("/w/f%03d", i))
		if err != nil || string(item.Value) != "v" {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

func TestClientMutateThroughRPC(t *testing.T) {
	c, _ := clusterEnv(t, 2)
	reply := wire.NewEncoder(0)
	for want := uint64(1); want <= 2; want++ {
		if _, err := c.Mutate(0, "k", mutateReq(rowIncr, []byte("v")), reply); err != nil {
			t.Fatal(err)
		}
		if seq, n := binary.Uvarint(reply.Bytes()); n != len(reply.Bytes()) || seq != want {
			t.Fatalf("answer %x, want seq %d", reply.Bytes(), want)
		}
	}
	// The row's error is the request's, and the reply stays empty.
	if _, err := c.Mutate(0, "k", mutateReq(9, nil), reply); err == nil || reply.Len() != 0 {
		t.Fatalf("unknown kind = %v with a %d-byte reply", err, reply.Len())
	}
	item, _, _ := get(c, 0, "k")
	if seq, ok := testSeq(item.Value); !ok || seq != 2 {
		t.Fatalf("value %x", item.Value)
	}
}

func TestClientFlushAll(t *testing.T) {
	c, servers := clusterEnv(t, 3)
	items := func() (n int64) {
		for _, s := range servers {
			n += s.Stats().Items
		}
		return n
	}
	for i := 0; i < 60; i++ {
		c.Set(0, fmt.Sprintf("k%d", i), []byte("v"), 0)
	}
	if got := items(); got != 60 {
		t.Fatalf("items before flush = %d", got)
	}
	if _, err := c.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if got := items(); got != 0 {
		t.Fatalf("items after flush = %d", got)
	}
}

func TestClientVirtualLatencyCrossNode(t *testing.T) {
	c, _ := clusterEnv(t, 1) // single server on node0, caller on node0
	model := vclock.Default()
	_, done, err := c.Set(0, "k", []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same-node RTT + one cache op (+ tiny transfer cost).
	min := vclock.Time(model.SameNodeRTT + model.CacheOpCost)
	max := min.Add(model.PerKB) // payload well under 1 KiB
	if done < min || done > max {
		t.Fatalf("done = %v, want in [%v, %v]", done, min, max)
	}
}

// get is a Client.Get that loads nothing, into a reply buffer of its own,
// which the item keeps; a miss is ErrNotExist.
func get(c *Client, at vclock.Time, key string) (Item, vclock.Time, error) {
	r, done, err := c.Get(at, key, false, wire.NewEncoder(0))
	if err == nil && r.Status == Miss {
		err = fsapi.ErrNotExist
	}
	return r.Item, done, err
}

// multiResult is one key of getMulti: a hit's item, or its owner's error.
type multiResult struct {
	Item Item
	Hit  bool
	Err  error
}

// getMulti is Client.GetMulti collected into a slice, every value copied
// out of its reply before the view dies.
func getMulti(c *Client, at vclock.Time, keys []string) ([]multiResult, vclock.Time) {
	out := make([]multiResult, len(keys))
	done := c.GetMulti(at, keys, false, func(i int, r Result, err error) {
		out[i] = multiResult{Item: r.Item, Hit: r.Status == Hit, Err: err}
		out[i].Item.Value = append([]byte(nil), r.Item.Value...)
	})
	return out, done
}

// makeVal builds a value in the test row's format: a uvarint seq, then a
// payload.
func makeVal(seq uint64) []byte {
	e := wire.NewEncoder(16)
	e.Uvarint(seq)
	e.String("payload")
	return e.Bytes()
}

// testSeq reads the seq a value in the test row's format opens with.
func testSeq(v []byte) (uint64, bool) {
	seq, n := binary.Uvarint(v)
	return seq, n > 0
}

// The test row's request kinds (testRow).
const (
	rowIncr byte = iota + 1
	rowPut
	rowPeek
	rowDelIf
)

var (
	errNoSeq       = errors.New("test row: stored value has no seq")
	errUnknownKind = errors.New("test row: unknown kind")
)

// testRow is the tests' row over values in makeVal's format; a request is a
// kind byte and a blob. rowIncr stores the blob behind a seq one past the
// stored value's (0 for an absent key), rowPut stores the blob itself,
// rowPeek stores nothing, and rowDelIf deletes the key if its seq is the
// uvarint the blob holds; rowIncr and rowPeek answer the seq the key then
// holds, the others nothing. Another kind, bytes left over, or a stored
// value without the seq a row reads is an error.
func testRow(cur *Item, req []byte, val, reply *wire.Encoder) (Action, error) {
	d := wire.GetDecoder(req)
	kind, data := d.Byte(), d.BlobView()
	err := d.Finish()
	wire.PutDecoder(d)
	if err != nil {
		return Keep, err
	}
	if kind == rowPut {
		val.Raw(data)
		return Store, nil
	}
	var seq uint64
	if cur != nil {
		var ok bool
		if seq, ok = testSeq(cur.Value); !ok {
			return Keep, errNoSeq
		}
	}
	switch kind {
	case rowIncr:
		seq++
		val.Uvarint(seq)
		val.Raw(data)
	case rowPeek:
	case rowDelIf:
		if want, ok := testSeq(data); ok && cur != nil && seq == want {
			return Delete, nil
		}
		return Keep, nil
	default:
		return Keep, errUnknownKind
	}
	reply.Uvarint(seq)
	if kind == rowIncr {
		return Store, nil
	}
	return Keep, nil
}

func mutateReq(kind byte, data []byte) []byte {
	e := wire.NewEncoder(8 + len(data))
	e.Byte(kind)
	e.Blob(data)
	return e.Bytes()
}

// delIf is rowDelIf's request for seq.
func delIf(seq uint64) []byte { return mutateReq(rowDelIf, binary.AppendUvarint(nil, seq)) }

// mutateBody is a mutate request's frame: the key and the row's request.
func mutateBody(key string, req []byte) []byte {
	e := wire.NewEncoder(16 + len(req))
	e.String(key)
	e.Blob(req)
	return e.Bytes()
}

// mutateMulti is Client.MutateMulti over entries given as slices.
func mutateMulti(c *Client, at vclock.Time, keys []string, reqs [][]byte) (changed, owners int, done vclock.Time, err error) {
	return c.MutateMulti(at, len(keys), func(i int) string { return keys[i] },
		func(i int, e *wire.Encoder) { e.Raw(reqs[i]) })
}

// TestConditionalOpsNeverDeleteAckedCAS hammers mutate_multi's rows
// against a concurrent writer on one key. The writer installs seq n with a
// mutate; the cleaner deletes, with rowDelIf, every seq the writer has
// released to it, its entry riding one mutate_multi beside a bystander key's.
// Between a store's acknowledgement and the release of its seq only deletes
// aimed at older seqs are in flight, and none of them may touch the acked
// value: every entry's row runs under its key's shard lock, so there is no
// check-then-delete window for the store to fall into.
func TestConditionalOpsNeverDeleteAckedCAS(t *testing.T) {
	bus := rpc.NewBus()
	model := vclock.Default()
	ring := dht.New(0)
	const addr = "node0/cache"
	bus.Register(addr, NewServer(addr, ServerConfig{Model: model, Row: testRow}).Service())
	ring.Add(addr)
	writer := NewClient(rpc.NewCaller(bus, model, "node0"), ring)
	cleaner := NewClient(rpc.NewCaller(bus, model, "node1"), ring)

	const key = "/w/contended"
	const rounds = 2000
	var released atomic.Uint64 // newest seq the cleaner may delete
	var deleted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := released.Load()
			// The bystander's entry rides the same frame with a seq of its
			// own: it never matches, and must not lend its seq to the
			// contended key's entry either.
			n, _, _, err := mutateMulti(cleaner, 0, []string{"/w/bystander", key}, [][]byte{delIf(seq + 1), delIf(seq)})
			if err != nil {
				t.Errorf("mutate_multi: %v", err)
				return
			}
			deleted.Add(int64(n))
			runtime.Gosched() // single-CPU runs: alternate with the writer
		}
	}()

	// The race is only exercised if released seqs really are deleted while
	// the writer keeps going: should the scheduler have starved the cleaner
	// for all of rounds, go on until it has won.
	reply := wire.NewEncoder(0)
	for n := uint64(1); n <= rounds || (deleted.Load() == 0 && n <= 100*rounds); n++ {
		if _, err := writer.Mutate(0, key, mutateReq(rowPut, makeVal(n)), reply); err != nil {
			t.Fatalf("round %d: %v", n, err)
		}
		item, _, err := get(writer, 0, key)
		if err != nil {
			t.Fatalf("round %d: acked store deleted by a row aimed at an older seq: %v", n, err)
		}
		if seq, ok := testSeq(item.Value); !ok || seq != n {
			t.Fatalf("round %d: acked value altered: seq %d", n, seq)
		}
		released.Store(n)
		runtime.Gosched()
	}
	if deleted.Load() == 0 {
		t.Fatal("cleaner never won")
	}
}

// TestBroadcastsFanOutConcurrently: FlushAll must start every member's
// request at the same virtual time and merge completions with
// vclock.Max — a broadcast over N idle members completes when the
// slowest does, not N serial round trips later.
func TestBroadcastsFanOutConcurrently(t *testing.T) {
	// One idle cross-node round trip bounds a concurrent broadcast: every
	// member is contacted at the same virtual instant, so the slowest
	// (remote) member sets the completion time. A serial broadcast over 4
	// members would take ~4 round trips.
	m := vclock.Default()
	oneRT := vclock.Time(m.RTT(false) + m.CacheOpCost)
	c4, _ := clusterEnv(t, 4)
	done4, err := c4.FlushAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if done4 > 2*oneRT {
		t.Fatalf("flush over 4 members took %d, one cross-node round trip is %d — broadcast looks serial", done4, oneRT)
	}
}

// TestGetReadsThroughTheLoadHook walks every answer a get that asks to
// load can give, through the RPC: a miss loaded and added (Loaded, one more
// service slot), the same key then a Hit that asks nothing, a load that
// fails (Failed, its error), a token no longer current and a server with
// no room (Unstored, the value all the same, nothing stored), a get that
// does not ask to load and a server with no hook (Miss, the hook never
// called).
func TestGetReadsThroughTheLoadHook(t *testing.T) {
	var loads atomic.Int64
	current := true
	s := testServer(ServerConfig{
		CapacityBytes: 1 << 10,
		Load: func(at vclock.Time, keys []string, vals *wire.Encoder) (uint64, vclock.Time) {
			loads.Add(1)
			loadValues(keys, vals)
			return 7, at.Add(100)
		},
		Current: func(token uint64) bool { return current && token == 7 },
	})
	bus := rpc.NewBus()
	bus.Register("n/cache", s.Service())
	c := NewClient(rpc.NewCaller(bus, vclock.Default(), "n"), dht.NewWithMembers(0, "n/cache"))
	get := func(key string, load bool) Result {
		t.Helper()
		r, _, err := c.Get(0, key, load, wire.NewEncoder(0))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		r.Item.Value = append([]byte(nil), r.Item.Value...)
		return r
	}

	served := s.ServedOps()
	if r := get("/w/a", true); r.Status != Loaded || string(r.Item.Value) != "loaded /w/a" || r.Item.CAS == 0 {
		t.Fatalf("first load = %+v", r)
	}
	if got := s.ServedOps() - served; got != 2 {
		t.Fatalf("a loading get took %d service slots, want 2 (the get, the add)", got)
	}
	if r := get("/w/a", true); r.Status != Hit || string(r.Item.Value) != "loaded /w/a" || loads.Load() != 1 {
		t.Fatalf("second get = %+v after %d loads", r, loads.Load())
	}
	if r := get("/w/gone", true); r.Status != Failed || !errors.Is(r.Err, fsapi.ErrNotExist) {
		t.Fatalf("failed load = %+v", r)
	}
	current = false
	if r := get("/w/b", true); r.Status != Unstored || r.Err != nil || string(r.Item.Value) != "loaded /w/b" {
		t.Fatalf("overtaken load = %+v", r)
	}
	current = true
	if r := get("/w/b", false); r.Status != Miss || loads.Load() != 3 {
		t.Fatalf("get without load = %+v after %d loads", r, loads.Load())
	}
	if _, _, err := s.Set(0, "/w/big", make([]byte, 800), 0); err != nil {
		t.Fatal(err)
	}
	if r := get("/w/c", true); r.Status != Unstored || !errors.Is(r.Err, fsapi.ErrOutOfSpace) || string(r.Item.Value) != "loaded /w/c" {
		t.Fatalf("load into a full server = %+v", r)
	}
	if items := s.Stats().Items; items != 2 {
		t.Fatalf("%d items resident, want /w/a and /w/big", items)
	}

	plain := testServer(ServerConfig{})
	bus.Register("p/cache", plain.Service())
	pc := NewClient(rpc.NewCaller(bus, vclock.Default(), "p"), dht.NewWithMembers(0, "p/cache"))
	if r, _, err := pc.Get(0, "/w/a", true, wire.NewEncoder(0)); err != nil || r.Status != Miss {
		t.Fatalf("load from a server with no hook = %+v, %v", r, err)
	}
}

// loadValues is the test servers' read behind the cache: a key under
// /w/gone does not exist, every other holds "loaded <key>".
func loadValues(keys []string, vals *wire.Encoder) {
	for _, key := range keys {
		if strings.HasPrefix(key, "/w/gone") {
			vals.Byte(fsapi.CodeOf(fsapi.ErrNotExist))
			vals.Blob(nil)
			continue
		}
		vals.Byte(fsapi.CodeOK)
		vals.Blob([]byte("loaded " + key))
	}
}

// TestInPlaceOverwriteReadsWhole: a store of a value that fits the stored
// buffer overwrites it in place, so a get or get_multi racing same-size
// mutates must still read one whole value, never bytes of two. Every value
// is one byte repeated; a torn read shows two. Run under -race via make
// check.
func TestInPlaceOverwriteReadsWhole(t *testing.T) {
	bus := rpc.NewBus()
	model := vclock.Default()
	ring := dht.New(0)
	const addr = "node0/cache"
	bus.Register(addr, NewServer(addr, ServerConfig{Model: model, Row: testRow}).Service())
	ring.Add(addr)
	writer := NewClient(rpc.NewCaller(bus, model, "node0"), ring)
	reader := NewClient(rpc.NewCaller(bus, model, "node1"), ring)

	const key, size, rounds = "/w/overwritten", 64, 2000
	value := func(n int) []byte { return bytes.Repeat([]byte{byte('a' + n%26)}, size) }
	reply := wire.NewEncoder(0)
	if _, err := writer.Mutate(0, key, mutateReq(rowPut, value(0)), reply); err != nil {
		t.Fatal(err)
	}
	whole := func(v []byte) bool { return len(v) == size && bytes.Count(v, v[:1]) == size }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 1; n <= rounds; n++ {
			if _, err := writer.Mutate(0, key, mutateReq(rowPut, value(n)), reply); err != nil {
				t.Errorf("mutate %d: %v", n, err)
				break
			}
			runtime.Gosched() // single-CPU runs: alternate with the readers
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, _ := getMulti(reader, 0, []string{key, key})
			for _, r := range res {
				if !r.Hit || !whole(r.Item.Value) {
					t.Errorf("get_multi read %q (hit %v, err %v), want one whole value", r.Item.Value, r.Hit, r.Err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
		item, _, err := get(reader, 0, key)
		if err != nil || !whole(item.Value) {
			t.Fatalf("get %d read %q (err %v), want one whole value", reads, item.Value, err)
		}
		runtime.Gosched()
	}
}

// TestSameSizeOverwriteAllocatesNothing: a store of a value the size of
// the one it replaces writes it into the stored buffer — put, which a
// row's Store shares — so rewriting an entry at its size allocates
// nothing.
func TestSameSizeOverwriteAllocatesNothing(t *testing.T) {
	s := testServer(ServerConfig{})
	const key = "/w/d/f"
	vals := [][]byte{makeVal(1), makeVal(2)}
	if _, err := s.store(key, vals[0], 0, storeSet, 0); err != nil {
		t.Fatal(err)
	}
	// One measured run of 100 stores after an unmeasured one: every
	// allocation among them counts.
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			if _, err := s.store(key, vals[i%2], 0, storeSet, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != 0 {
		t.Errorf("%v allocs in 100 same-size stores, want 0", n)
	}
	item, _, err := s.Get(0, key)
	if err != nil || !bytes.Equal(item.Value, vals[1]) {
		t.Fatalf("after the run the key holds %x (err %v), want %x", item.Value, err, vals[1])
	}
}
