package rpc_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pacon/internal/dfs"
	"pacon/internal/dht"
	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// hidden wraps a transport so that it no longer says its handlers run
// inline: a Caller over it fans out on goroutines.
func hidden(t rpc.Transport) rpc.Transport { return struct{ rpc.Transport }{t} }

// TestFanOutSerialAndConcurrentAgree: on a transport that runs handlers
// in the caller's goroutine Caller.FanOut issues its calls one after
// another unless asked to block, elsewhere concurrently — and because
// each is charged from the same `at`, never from its predecessor's
// completion, both forms leave the same results in the same slots at
// the same virtual time. Checked on the bare fan-out and through both
// clients built on it: the cache client's per-owner calls, and the DFS
// client's per-shard batches (which ask to block) against real sockets.
func TestFanOutSerialAndConcurrentAgree(t *testing.T) {
	model := vclock.Default()

	t.Run("calls", func(t *testing.T) {
		// Five services, each slower than the last; the fourth refuses.
		bus := rpc.NewBus()
		for i := 0; i < 5; i++ {
			svc := rpc.NewService()
			svc.Handle("work", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
				if i == 3 {
					return at, nil, fsapi.ErrStale
				}
				return at.Add(vclock.Duration(i+1) * time.Millisecond), []byte{byte(i)}, nil
			})
			bus.Register(fmt.Sprintf("node%d/svc", i), svc)
		}
		type slot struct {
			resp []byte
			err  error
		}
		run := func(c *rpc.Caller, n int, block bool) ([]slot, vclock.Time) {
			const at = vclock.Time(1 << 20)
			out := make([]slot, n)
			return out, c.FanOut(at, n, block, func(i int) (done vclock.Time) {
				done, out[i].resp, out[i].err = c.Call(fmt.Sprintf("node%d/svc", i), "work", at, nil)
				return done
			})
		}
		serial, concurrent := rpc.NewCaller(bus, model, "node0"), rpc.NewCaller(hidden(bus), model, "node0")
		if !serial.Inline() || concurrent.Inline() {
			t.Fatalf("inline = %v / %v, want the bus to report it and the wrapper to hide it", serial.Inline(), concurrent.Inline())
		}
		for _, n := range []int{0, 1, 5} {
			sres, sdone := run(serial, n, false)
			// The concurrent forms: a transport that is not inline, and an
			// inline one asked to block.
			for _, c := range []*rpc.Caller{concurrent, serial} {
				cres, cdone := run(c, n, true)
				if sdone != cdone {
					t.Fatalf("%d calls complete at %v issued serially, %v concurrently", n, sdone, cdone)
				}
				for i := range sres {
					if string(sres[i].resp) != string(cres[i].resp) || !errors.Is(cres[i].err, sres[i].err) {
						t.Fatalf("call %d of %d: serial %+v, concurrent %+v", i, n, sres[i], cres[i])
					}
				}
			}
			for i := range sres {
				if refused := i == 3; refused != errors.Is(sres[i].err, fsapi.ErrStale) || (!refused && sres[i].resp[0] != byte(i)) {
					t.Fatalf("call %d of %d landed in the wrong slot: %+v", i, n, sres[i])
				}
			}
			// The slowest call that was made sets the completion; none made,
			// the fan-out completes when it started.
			want := vclock.Time(1 << 20)
			if n > 0 {
				want = want.Add(model.RTT(n == 1) + vclock.Duration(n)*time.Millisecond + model.Transfer(1))
			}
			if sdone != want {
				t.Fatalf("%d calls complete at %v, want %v", n, sdone, want)
			}
		}
	})

	t.Run("memcache", func(t *testing.T) {
		build := func(wrap func(rpc.Transport) rpc.Transport) *memcache.Client {
			bus, ring := rpc.NewBus(), dht.New(0)
			for i := 0; i < 4; i++ {
				addr := fmt.Sprintf("node%d/cache", i)
				bus.Register(addr, memcache.NewServer(addr, memcache.ServerConfig{Model: model}).Service())
				ring.Add(addr)
			}
			return memcache.NewClient(rpc.NewCaller(wrap(bus), model, "node0"), ring)
		}
		serial := build(func(t rpc.Transport) rpc.Transport { return t })
		concurrent := build(hidden)
		// A cached value opens with its header: the flag byte (bit 0 is
		// "dirty") and the sequence number a settle must match.
		dirtyVal := func(seq uint64) []byte {
			e := wire.NewEncoder(16)
			e.Byte(1)
			e.Uvarint(seq)
			e.String("payload")
			return e.Bytes()
		}
		var keys []string
		var entries []memcache.Settle
		for i := 0; i < 64; i++ {
			keys = append(keys, fmt.Sprintf("/w/k%02d", i))
			entries = append(entries, memcache.Settle{Key: keys[i], Seq: uint64(i), Clear: true})
		}
		for _, c := range []*memcache.Client{serial, concurrent} {
			for i, key := range keys {
				if _, _, err := c.Set(0, key, dirtyVal(uint64(i)), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		const at = vclock.Time(1 << 30) // past every Set: the servers are idle
		sa, so, sdone, serr := serial.SettleMulti(at, entries)
		ca, co, cdone, cerr := concurrent.SettleMulti(at, entries)
		if serr != nil || cerr != nil || sa != len(keys) || ca != sa || so != 4 || co != so {
			t.Fatalf("settle: serial %d applied/%d owners/%v, concurrent %d/%d/%v", sa, so, serr, ca, co, cerr)
		}
		if sdone != cdone {
			t.Fatalf("settle completes at %v issued serially, %v concurrently", sdone, cdone)
		}
		getMulti := func(c *memcache.Client, at vclock.Time) ([]memcache.Result, vclock.Time) {
			out := make([]memcache.Result, len(keys))
			return out, c.GetMulti(at, keys, false, func(i int, r memcache.Result, err error) {
				r.Item.Value = append([]byte(nil), r.Item.Value...)
				if err != nil {
					r.Status = memcache.Miss
				}
				out[i] = r
			})
		}
		sres, sdone := getMulti(serial, sdone)
		cres, cdone := getMulti(concurrent, cdone)
		if sdone != cdone {
			t.Fatalf("get_multi completes at %v issued serially, %v concurrently", sdone, cdone)
		}
		for i := range keys {
			if sres[i].Status != memcache.Hit || cres[i].Status != memcache.Hit || sres[i].Item.Value[0] != 0 || cres[i].Item.Value[0] != 0 {
				t.Fatalf("%s after settle: serial %+v, concurrent %+v", keys[i], sres[i], cres[i])
			}
		}
	})

	t.Run("dfs", func(t *testing.T) {
		root, app := fsapi.Cred{}, fsapi.Cred{UID: 1000, GID: 1000}
		tcp := rpc.NewTCPNetwork()
		defer tcp.Close()
		if !rpc.NewCaller(rpc.NewBus(), model, "node0").Inline() || rpc.NewCaller(tcp, model, "node0").Inline() {
			t.Fatal("want the bus inline and TCP not")
		}
		type outcome struct {
			errs  []error
			sizes []int64
			done  vclock.Time
		}
		run := func(net rpc.Network) outcome {
			c := dfs.NewClusterSharded(net, model, root, "storage0", 4, []string{"/w"}, nil)
			if _, err := c.NewClient("admin", root, 0, 0).Mkdir(0, "/w", 0o777); err != nil {
				t.Fatal(err)
			}
			cl := c.NewClient("node0", app, 64, time.Hour)
			ops := make([]fsapi.BatchOp, 32)
			paths := make([]string, len(ops))
			for i := range ops {
				paths[i] = fmt.Sprintf("/w/f%02d", i)
				ops[i] = fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: paths[i], Stat: fsapi.Stat{Type: fsapi.TypeFile, Mode: 0o644, Size: int64(i), Nlink: 1}}
			}
			ops[7].Path, paths[7] = paths[3], "/w/missing" // one op and one path fail on their own
			const at = vclock.Time(1 << 30)
			errs, done, err := cl.ApplyBatch(at, ops)
			if err != nil {
				t.Fatal(err)
			}
			res, done, err := cl.StatBatch(done, paths)
			if err != nil {
				t.Fatal(err)
			}
			out := outcome{errs: errs, done: done}
			for i, r := range res {
				if (r.Err != nil) != (i == 7) {
					t.Fatalf("stat %s = %v", paths[i], r.Err)
				}
				out.sizes = append(out.sizes, r.Stat.Size)
			}
			touched := 0
			for _, m := range c.MDSes {
				if m.Stats().Writes > 1 { // past the mirrored mkdir of /w
					touched++
				}
			}
			if touched != 4 {
				t.Fatalf("the batch reached %d of 4 shards", touched)
			}
			return out
		}
		// The batch paths ask the fan-out to block, so both runs spawn; what
		// differs is whether the handlers then run in place or across sockets.
		bus, socket := run(rpc.NewBus()), run(tcp)
		if bus.done != socket.done {
			t.Fatalf("apply_batch + stat_batch over 4 shards complete at %v on the bus, %v over TCP", bus.done, socket.done)
		}
		for i := range bus.errs {
			if want := i == 7; want != errors.Is(bus.errs[i], fsapi.ErrExist) || want != errors.Is(socket.errs[i], fsapi.ErrExist) {
				t.Fatalf("op %d: %v on the bus, %v over TCP", i, bus.errs[i], socket.errs[i])
			}
			if bus.sizes[i] != socket.sizes[i] {
				t.Fatalf("stat %d: size %d on the bus, %d over TCP", i, bus.sizes[i], socket.sizes[i])
			}
		}
	})
}
