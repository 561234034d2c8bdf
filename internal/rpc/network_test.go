package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

func TestTCPNetworkServesRegisteredServices(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()

	res := vclock.NewResource("svc", 1)
	svc := NewService()
	svc.Handle("echo", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		out := make([]byte, len(body))
		copy(out, body)
		return res.Acquire(at, 5*time.Microsecond), out, nil
	})
	n.Register("node1/svc", svc)

	model := vclock.LatencyModel{CrossNodeRTT: 80 * time.Microsecond}
	c := NewCaller(n, model, "node0")
	done, resp, err := c.Call("node1/svc", "echo", 0, []byte("over real sockets"))
	if err != nil || string(resp) != "over real sockets" {
		t.Fatalf("call = %q, %v", resp, err)
	}
	// Virtual-time math is identical over TCP: RTT + service.
	if want := vclock.Time(85 * time.Microsecond); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
	if c.node != "node0" || c.model != model {
		t.Fatal("caller accessors wrong")
	}
}

func TestTCPNetworkUnregisterAndClose(t *testing.T) {
	n := NewTCPNetwork()
	svc := NewService()
	svc.Handle("ping", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		return at, nil, nil
	})
	n.Register("a/svc", svc)
	n.Register("b/svc", svc)
	c := NewCaller(n, vclock.LatencyModel{}, "x")

	n.Unregister("a/svc")
	if _, _, err := c.Call("a/svc", "ping", 0, nil); err == nil {
		t.Fatal("call to unregistered service must fail")
	}
	if _, _, err := c.Call("b/svc", "ping", 0, nil); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if _, _, err := c.Call("b/svc", "ping", 0, nil); err == nil {
		t.Fatal("call after network close must fail")
	}
	// Unknown address entirely.
	if _, _, err := c.Call("ghost/svc", "ping", 0, nil); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("unknown addr err = %v", err)
	}
}

func TestTCPNetworkConcurrentCallers(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	svc := NewService()
	svc.Handle("inc", func(at vclock.Time, body []byte) (vclock.Time, []byte, error) {
		return at, body, nil
	})
	n.Register("s/svc", svc)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewCaller(n, vclock.LatencyModel{}, "client")
			for i := 0; i < 50; i++ {
				if _, _, err := c.Call("s/svc", "inc", 0, []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCallerInlineIsTheTransportsAnswer: only a transport that says its
// handlers run on the calling goroutine makes a Caller inline — the Bus
// does, TCP does not, and a wrapper that does not forward the property
// hides it.
func TestCallerInlineIsTheTransportsAnswer(t *testing.T) {
	tcp := NewTCPNetwork()
	defer tcp.Close()
	bus := NewBus()
	for name, tc := range map[string]struct {
		t    Transport
		want bool
	}{
		"bus":         {bus, true},
		"tcp":         {tcp, false},
		"wrapped bus": {struct{ Transport }{bus}, false},
	} {
		if got := NewCaller(tc.t, vclock.Default(), "n").inline; got != tc.want {
			t.Errorf("%s: inline = %v, want %v", name, got, tc.want)
		}
	}
}
