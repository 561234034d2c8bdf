package main

import (
	"runtime"
	"sync"
	"time"

	"pacon/internal/core"
	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/mq"
	"pacon/internal/namespace"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Isolated per-layer calls: each number is one public function of one
// module, timed alone on the workload's own keys. They carry no bound;
// they say where to look when an end-to-end metric moves.

const isolatedRounds = 5

// measure calls fn(i) for i in [0,n) isolatedRounds times, after an
// untimed setup (may be nil) each round, and reports the fastest round
// in ns and heap allocations per call. The minimum is the right
// statistic for a deterministic single-threaded loop on a noisy host:
// interference only ever adds time.
func measure(n int, setup func(), fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var ms runtime.MemStats
	best := time.Duration(1 << 62)
	for r := 0; r < isolatedRounds; r++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if d < best {
			best = d
			allocsPerCall = float64(ms.Mallocs-mallocs) / float64(n)
		}
	}
	return float64(best.Nanoseconds()) / float64(n), allocsPerCall
}

var sink int // keeps measured results alive

// isolatedLayers fills the isolated-call metrics into res; n is the
// call count per round (20000 on a real run).
func isolatedLayers(res *result, keys []string, n int) error {
	model := vclock.Default()
	st := fsapi.NewFileStat(appCred, 0o644)
	blob := makePayload(1)
	value := fsapi.MarshalStat(st)
	key := func(i int) string { return keys[i%len(keys)] }
	group := func(i int) []string {
		first := (i * statMultiKeys) % (len(keys) - statMultiKeys + 1)
		return keys[first : first+statMultiKeys]
	}

	// memcache: one server, direct method calls.
	srv := memcache.NewServer("bench/cache", memcache.ServerConfig{Model: model, Workers: model.CacheWorkers})
	cas := make([]uint64, len(keys))
	addNS, _ := measure(len(keys), func() { srv.FlushAll(0) }, func(i int) {
		cas[i], _, _ = srv.Add(0, keys[i], value, 0)
	})
	getNS, getAllocs := measure(n, nil, func(i int) {
		it, _, _ := srv.Get(0, key(i))
		sink += len(it.Value)
	})
	casNS, _ := measure(n, nil, func(i int) {
		k := i % len(keys)
		cas[k], _, _ = srv.CAS(0, keys[k], value, 0, cas[k])
	})
	multiNS, _ := measure(n/statMultiKeys, nil, func(i int) {
		r, _ := srv.GetMulti(0, group(i))
		sink += len(r)
	})
	res.set("memcache.get_ns", getNS, "ns")
	res.set("memcache.add_ns", addNS, "ns")
	res.set("memcache.cas_ns", casNS, "ns")
	res.set("memcache.get_multi_ns_per_key", multiNS/statMultiKeys, "ns")
	res.set("memcache.allocs_per_get", getAllocs, "count")

	// rpc: a 128-byte echo through Caller.Call on each transport.
	echo := rpc.NewService()
	echo.Handle("echo", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) { return at, body, nil })
	body := make([]byte, 128)
	bus := rpc.NewBus()
	bus.Register("node1/echo", echo)
	busCaller := rpc.NewCaller(bus, model, "node0")
	busNS, _ := measure(n, nil, func(int) {
		_, resp, _ := busCaller.Call("node1/echo", "echo", 0, body)
		sink += len(resp)
	})
	tcp := rpc.NewTCPNetwork()
	defer tcp.Close()
	tcp.Register("node1/echo", echo)
	tcpCaller := rpc.NewCaller(tcp, model, "node0")
	var tcpErr error
	tcpNS, tcpAllocs := measure(n/10, nil, func(int) {
		_, resp, err := tcpCaller.Call("node1/echo", "echo", 0, body)
		if err != nil {
			tcpErr = err
		}
		sink += len(resp)
	})
	if tcpErr != nil {
		return tcpErr
	}
	res.set("rpc.bus.echo_ns", busNS, "ns")
	res.set("rpc.tcp.echo_us", tcpNS/1e3, "us")
	res.set("rpc.tcp.echo_allocs", tcpAllocs, "count")

	// wire + fsapi: path + Stat + 64-byte blob through the pooled codec.
	var frame []byte
	encNS, encAllocs := measure(n, nil, func(i int) {
		e := wire.GetEncoder()
		e.String(key(i))
		fsapi.EncodeStat(e, st)
		e.Blob(blob)
		frame = append(frame[:0], e.Bytes()...)
		wire.PutEncoder(e)
	})
	decNS, decAllocs := measure(n, nil, func(int) {
		d := wire.GetDecoder(frame)
		sink += len(d.BlobView()) // the path, read in place
		s := fsapi.DecodeStat(d)
		sink += int(s.Size) + len(d.BlobView())
		wire.PutDecoder(d)
	})
	codecNS, _ := measure(n, nil, func(int) {
		s, _ := fsapi.UnmarshalStat(fsapi.MarshalStat(st))
		sink += int(s.Size)
	})
	res.set("wire.encode_ns", encNS, "ns")
	res.set("wire.decode_ns", decNS, "ns")
	res.set("wire.allocs", encAllocs+decAllocs, "count")
	res.set("fsapi.stat_codec_ns", codecNS, "ns")

	// namespace: path cleaning and the MDS's tree.
	cleanNS, _ := measure(n, nil, func(i int) { sink += len(namespace.Clean(key(i))) })
	var tree *namespace.Tree
	dirSt := fsapi.NewDirStat(appCred, 0o755)
	var treeErr error
	createNS, _ := measure(len(keys), func() {
		tree = namespace.NewTree(adminCred)
		for _, dir := range namespace.Ancestors(keys[0]) {
			if dir != "/" {
				treeErr = tree.Mkdir(dir, dirSt)
			}
		}
	}, func(i int) {
		if err := tree.Create(keys[i], st); err != nil {
			treeErr = err
		}
	})
	if treeErr != nil {
		return treeErr
	}
	lookupNS, _ := measure(n, nil, func(i int) {
		s, _ := tree.Lookup(key(i))
		sink += int(s.Size)
	})
	res.set("namespace.clean_ns", cleanNS, "ns")
	res.set("namespace.tree_create_ns", createNS, "ns")
	res.set("namespace.tree_lookup_ns", lookupNS, "ns")

	// dht: owner lookup on a ring the size of the region's.
	ring := dht.NewWithMembers(0, "node0/c", "node1/c", "node2/c", "node3/c")
	dhtNS, _ := measure(n, nil, func(i int) { sink += len(ring.Lookup(key(i))) })
	groupNS, _ := measure(n/statMultiKeys, nil, func(i int) { sink += len(ring.GroupByOwner(group(i))) })
	res.set("dht.lookup_ns", dhtNS, "ns")
	res.set("dht.group_ns_per_key", groupNS/statMultiKeys, "ns")

	// mq: push n commit ops, then pop them in commit-sized batches.
	const batch = 8
	var q *mq.Queue[core.Op]
	var buf []core.Op
	op := core.Op{Kind: core.OpCreate, Stat: st, Node: "node0"}
	var pushErr error
	push := func(i int) {
		op.Path = key(i)
		if err := q.Push(op); err != nil {
			pushErr = err
		}
	}
	pushNS, pushAllocs := measure(n, func() { q = mq.NewQueue[core.Op]() }, push)
	popNS, popAllocs := measure(n/batch, func() {
		q = mq.NewQueue[core.Op]()
		for i := 0; i < n; i++ {
			push(i)
		}
	}, func(int) {
		buf, _, _, _ = q.PopBatchInto(buf, batch)
		sink += len(buf)
	})
	if pushErr != nil {
		return pushErr
	}
	res.set("mq.push_ns", pushNS, "ns")
	res.set("mq.popbatch_ns_per_op", popNS/batch, "ns")
	res.set("mq.allocs_per_op", pushAllocs+popAllocs/batch, "count")

	// vclock: two goroutines contending on one Resource, as the two
	// clients do on a cache server's.
	resource := vclock.NewResource("bench", model.CacheWorkers)
	acquireNS, _ := measure(1, nil, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < clientCount; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				at := vclock.Time(0)
				for k := 0; k < n; k++ {
					at = resource.Acquire(at, model.CacheOpCost)
				}
			}()
		}
		wg.Wait()
	})
	res.set("vclock.acquire_ns", acquireNS/float64(n), "ns")
	return nil
}
