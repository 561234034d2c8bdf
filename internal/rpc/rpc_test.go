package rpc

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

func echoService(t *testing.T, cost vclock.Duration) *Service {
	t.Helper()
	res := vclock.NewResource("echo", 1)
	svc := NewService()
	svc.Handle("echo", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		out := make([]byte, len(body))
		copy(out, body)
		return res.Acquire(at, cost), out, nil
	})
	svc.Handle("fail", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		return at, nil, fsapi.ErrNotExist
	})
	return svc
}

func TestBusCallAddsLatency(t *testing.T) {
	bus := NewBus()
	bus.Register("node1/echo", echoService(t, 10*time.Microsecond))
	model := vclock.LatencyModel{SameNodeRTT: 8 * time.Microsecond, CrossNodeRTT: 80 * time.Microsecond}

	// Cross-node: one-way 40µs out + 10µs service + 40µs back.
	c := NewCaller(bus, model, "node0")
	done, resp, err := c.Call("node1/echo", "echo", 0, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hi" {
		t.Fatalf("resp = %q", resp)
	}
	if want := vclock.Time(90 * time.Microsecond); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestBusSameNodeLatency(t *testing.T) {
	bus := NewBus()
	bus.Register("node1/echo", echoService(t, 10*time.Microsecond))
	model := vclock.LatencyModel{SameNodeRTT: 8 * time.Microsecond, CrossNodeRTT: 80 * time.Microsecond}
	c := NewCaller(bus, model, "node1")
	done, _, err := c.Call("node1/echo", "echo", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4µs out + 10µs + 4µs back.
	if want := vclock.Time(18 * time.Microsecond); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestTransferCostCharged(t *testing.T) {
	bus := NewBus()
	bus.Register("n/echo", echoService(t, 0))
	model := vclock.LatencyModel{CrossNodeRTT: 80 * time.Microsecond, PerKB: time.Microsecond}
	c := NewCaller(bus, model, "other")
	payload := make([]byte, 4096)
	done, _, err := c.Call("n/echo", "echo", 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	// 40µs + 4µs transfer out, echo free, 40µs + 4µs transfer back.
	if want := vclock.Time(88 * time.Microsecond); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestErrorNormalization(t *testing.T) {
	bus := NewBus()
	bus.Register("n/svc", echoService(t, 0))
	c := NewCaller(bus, vclock.Default(), "n")
	_, _, err := c.Call("n/svc", "fail", 0, nil)
	if !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestUnknownMethodAndAddress(t *testing.T) {
	bus := NewBus()
	bus.Register("n/svc", echoService(t, 0))
	c := NewCaller(bus, vclock.Default(), "n")
	if _, _, err := c.Call("n/svc", "nope", 0, nil); err == nil {
		t.Fatal("unknown method must error")
	}
	if _, _, err := c.Call("n/ghost", "echo", 0, nil); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("unknown address err = %v, want ErrClosed", err)
	}
}

func TestUnregisterSimulatesFailure(t *testing.T) {
	bus := NewBus()
	bus.Register("n/svc", echoService(t, 0))
	c := NewCaller(bus, vclock.Default(), "n")
	if _, _, err := c.Call("n/svc", "echo", 0, nil); err != nil {
		t.Fatal(err)
	}
	bus.Unregister("n/svc")
	if _, _, err := c.Call("n/svc", "echo", 0, nil); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("err after unregister = %v", err)
	}
}

func TestNodeOf(t *testing.T) {
	cases := map[string]string{
		"node3/mds":        "node3",
		"node0/cache":      "node0",
		"bare":             "bare",
		"n/deep/structure": "n",
	}
	for addr, want := range cases {
		if got := NodeOf(addr); got != want {
			t.Fatalf("NodeOf(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestConcurrentCallsSerializeOnResource(t *testing.T) {
	bus := NewBus()
	bus.Register("n/echo", echoService(t, 10*time.Microsecond))
	model := vclock.LatencyModel{CrossNodeRTT: 0, SameNodeRTT: 0}

	const goros = 8
	const per = 50
	var wg sync.WaitGroup
	ends := make([]vclock.Time, goros)
	served := &recObserver{}
	bus.SetObserver(served)
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCaller(bus, model, "client")
			var now vclock.Time
			for i := 0; i < per; i++ {
				done, _, err := c.Call("n/echo", "echo", now, nil)
				if err != nil {
					t.Error(err)
					return
				}
				now = done
			}
			ends[g] = now
		}()
	}
	wg.Wait()
	// Single-worker echo at 10µs: 400 ops take exactly 4ms of virtual time.
	if want := vclock.Time(goros * per * 10 * time.Microsecond); slices.Max(ends) != want {
		t.Fatalf("horizon = %v, want %v", slices.Max(ends), want)
	}
	if len(served.calls) != goros*per {
		t.Fatalf("calls = %d", len(served.calls))
	}
}

func TestTCPRoundTrip(t *testing.T) {
	svc := echoService(t, 5*time.Microsecond)
	srv, err := ServeTCP("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr := NewTCPTransport(map[string]string{"node1/echo": srv.Addr()})
	defer tr.Close()
	model := vclock.LatencyModel{CrossNodeRTT: 80 * time.Microsecond}
	c := NewCaller(tr, model, "node0")

	done, resp, err := c.Call("node1/echo", "echo", 0, []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "over tcp" {
		t.Fatalf("resp = %q", resp)
	}
	if want := vclock.Time(85 * time.Microsecond); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestTCPErrorCodesCrossTheWire(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", echoService(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[string]string{"n/svc": srv.Addr()})
	defer tr.Close()
	c := NewCaller(tr, vclock.LatencyModel{}, "x")
	_, _, err = c.Call("n/svc", "fail", 0, nil)
	if !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err over TCP = %v, want ErrNotExist", err)
	}
}

func TestTCPNoRoute(t *testing.T) {
	tr := NewTCPTransport(nil)
	c := NewCaller(tr, vclock.LatencyModel{}, "x")
	if _, _, err := c.Call("ghost", "echo", 0, nil); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", echoService(t, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCPTransport(map[string]string{"n/echo": srv.Addr()})
	defer tr.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewCaller(tr, vclock.LatencyModel{}, "client")
			e := wire.NewEncoder(8)
			e.Uint32(uint32(g))
			for i := 0; i < 40; i++ {
				_, resp, err := c.Call("n/echo", "echo", 0, e.Bytes())
				if err != nil {
					t.Error(err)
					return
				}
				if wire.NewDecoder(resp).Uint32() != uint32(g) {
					t.Error("response routed to wrong client")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", echoService(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPTransport(map[string]string{"n/echo": srv.Addr()})
	defer tr.Close()
	c := NewCaller(tr, vclock.LatencyModel{}, "x")
	if _, _, err := c.Call("n/echo", "echo", 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Call("n/echo", "echo", 0, nil); err == nil {
		t.Fatal("call after server close must fail")
	}
}
