// Package rpc is the transport layer connecting clients to metadata
// services. Two interchangeable transports exist:
//
//   - Bus — an in-process transport used by tests and the bench harness;
//     handlers run in the caller's goroutine, so hundreds of simulated
//     clients cost nothing but goroutines.
//   - TCP — a real length-prefixed-frame protocol over net.Conn, used by
//     the examples to show the system running across OS processes.
//
// Every request carries a virtual arrival timestamp (internal/vclock) and
// every response carries a virtual completion timestamp; the Caller adds
// the latency-model wire costs on both directions. Real wall-clock time
// never enters throughput math.
package rpc

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// Handler serves one RPC method. `at` is the virtual time the request
// reaches the service (wire latency already added by the caller); the
// returned time is when the service finished, typically
// resource.Acquire(at, cost).
type Handler func(at vclock.Time, body []byte) (vclock.Time, []byte, error)

// Service is a method mux registered under one address.
type Service struct {
	mu      sync.RWMutex
	methods map[string]Handler
}

// NewService returns an empty method mux.
func NewService() *Service { return &Service{methods: make(map[string]Handler)} }

// Handle registers a handler for method. Re-registering replaces.
func (s *Service) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[method] = h
}

// dispatch runs the handler for method, or errors if unknown.
func (s *Service) dispatch(method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	s.mu.RLock()
	h := s.methods[method]
	s.mu.RUnlock()
	if h == nil {
		return at, nil, fmt.Errorf("rpc: unknown method %q", method)
	}
	return h(at, body)
}

// Transport delivers a request to the service at a logical address.
type Transport interface {
	Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error)
}

// inlineTransport is the optional property of a transport whose Invoke
// runs the handler on the calling goroutine and returns when it has.
// Round trips on such a transport cannot overlap in real time, so a
// caller fanning out from one virtual instant loses nothing by issuing
// them one after another (see Caller.Inline). The Bus reports it; TCP,
// where the waits do overlap, does not.
type inlineTransport interface {
	HandlersRunInline() bool
}

// Bus is the in-process transport: a registry of logical address →
// Service. Safe for concurrent use.
type Bus struct {
	mu       sync.RWMutex
	services map[string]*Service

	calls atomic.Int64
	bytes atomic.Int64
	obs   atomic.Pointer[RPCObserver]
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{services: make(map[string]*Service)} }

// Register binds a service to a logical address like "node3/mds".
func (b *Bus) Register(addr string, svc *Service) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.services[addr] = svc
}

// Unregister removes an address; in-flight calls finish normally. Used to
// simulate node failure.
func (b *Bus) Unregister(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.services, addr)
}

// SetObserver installs (or, with nil, removes) the per-round-trip
// instrumentation hook. Safe to call concurrently with Invoke.
func (b *Bus) SetObserver(o RPCObserver) {
	if o == nil {
		b.obs.Store(nil)
		return
	}
	b.obs.Store(&o)
}

// HandlersRunInline reports that Invoke dispatches on the caller's
// goroutine.
func (b *Bus) HandlersRunInline() bool { return true }

// Invoke implements Transport.
func (b *Bus) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	b.mu.RLock()
	svc := b.services[addr]
	b.mu.RUnlock()
	if svc == nil {
		return at, nil, fmt.Errorf("rpc: no service at %q: %w", addr, fsapi.ErrClosed)
	}
	b.calls.Add(1)
	b.bytes.Add(int64(len(body)))
	if p := b.obs.Load(); p != nil {
		start := time.Now()
		done, resp, err := svc.dispatch(method, at, body)
		(*p).ObserveRPC(addr, method, time.Since(start), err)
		return done, resp, err
	}
	return svc.dispatch(method, at, body)
}

// InvokeTrace implements TraceInvoker: like Invoke, but a sampled trace
// context additionally reports the dispatch window to the installed
// observer's SpanObserver side, recording the server's part of the span.
func (b *Bus) InvokeTrace(addr, method string, at vclock.Time, tc TraceContext, body []byte) (vclock.Time, []byte, error) {
	b.mu.RLock()
	svc := b.services[addr]
	b.mu.RUnlock()
	if svc == nil {
		return at, nil, fmt.Errorf("rpc: no service at %q: %w", addr, fsapi.ErrClosed)
	}
	b.calls.Add(1)
	b.bytes.Add(int64(len(body)))
	p := b.obs.Load()
	if p == nil {
		return svc.dispatch(method, at, body)
	}
	start := time.Now()
	done, resp, err := svc.dispatch(method, at, body)
	d := time.Since(start)
	(*p).ObserveRPC(addr, method, d, err)
	if tc.Span != 0 && tc.Sampled {
		if so, ok := (*p).(SpanObserver); ok {
			so.ObserveServerSpan(tc.Span, tc.Hops, addr, method, start, d, err)
		}
	}
	return done, resp, err
}

// Calls returns the number of invocations served.
func (b *Bus) Calls() int64 { return b.calls.Load() }

// Bytes returns the total request payload bytes carried.
func (b *Bus) Bytes() int64 { return b.bytes.Load() }

// NodeOf extracts the node component of a logical address
// ("node3/mds" → "node3"). Addresses without a slash are their own node.
func NodeOf(addr string) string {
	if i := strings.IndexByte(addr, '/'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// Caller issues RPCs on behalf of one client process pinned to a node.
// It injects the latency model's wire costs around the transport and
// normalizes errors to the fsapi sentinel set so behavior is identical
// over Bus and TCP.
type Caller struct {
	transport Transport
	// traceInv is the transport's TraceInvoker view, asserted once at
	// construction (nil when the transport cannot carry trace contexts).
	traceInv TraceInvoker
	// inline is the transport's inlineTransport answer, asked once.
	inline bool
	model  vclock.LatencyModel
	node   string

	pacer   *vclock.Pacer
	pacerID int

	calls atomic.Int64
	// trace is the packed TraceContext tagging outgoing calls
	// (0 = untraced; see trace.go).
	trace atomic.Uint64
}

// NewCaller builds a caller for a client running on `node`.
func NewCaller(t Transport, model vclock.LatencyModel, node string) *Caller {
	ti, _ := t.(TraceInvoker)
	it, ok := t.(inlineTransport)
	return &Caller{transport: t, traceInv: ti, inline: ok && it.HandlersRunInline(), model: model, node: node}
}

// Inline reports whether the transport runs handlers on the calling
// goroutine. A fan-out of calls that all start at the same virtual
// instant then completes at the same virtual time whether it is issued
// from one goroutine per call or serially, and the serial form spares
// the goroutines: Call charges each round trip from the `at` it is
// given, never from the previous call's completion.
func (c *Caller) Inline() bool { return c.inline }

// FanOut runs call(0) … call(n-1) as round trips that all leave at the
// same virtual instant and returns the latest completion, never earlier
// than at — the one fan-out behind every multi-server operation in the
// repository (a cache client's per-owner calls, a DFS client's per-shard
// batches, mirrored mutations, sweeps and two-phase steps). call(i)
// issues its own Call from that instant and returns its completion; its
// reply and error stay in whatever i-th result slot the caller keeps,
// so one failure never hides the others' outcomes. A lone call runs
// right here; otherwise each call gets a goroutine so the real waits
// overlap, and FanOut returns once all have. On a transport that runs
// handlers on the calling goroutine (Inline) there is no wait to
// overlap and the virtual completion is the same either way, so a
// caller that does not ask to block runs its calls right here too, one
// after another. block keeps the goroutines on every transport: the
// caller then gives the processor up for the length of the fan-out, as
// a process waiting on a network would. The DFS client's per-shard
// batches ask for it — an unpaced commit process on one P otherwise
// never yields between waves, and how many ops its next wave finds
// queued (BENCH.json's sharded rows) is decided by that yield, not by
// virtual time; ROADMAP item 8 is the pacing that would let them stop.
func (c *Caller) FanOut(at vclock.Time, n int, block bool, call func(i int) vclock.Time) vclock.Time {
	latest := at
	if n <= 1 || c.inline && !block {
		for i := 0; i < n; i++ {
			latest = vclock.Max(latest, call(i))
		}
		return latest
	}
	times := make([]vclock.Time, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range times {
		go func() {
			defer wg.Done()
			times[i] = call(i)
		}()
	}
	wg.Wait()
	for _, t := range times {
		latest = vclock.Max(latest, t)
	}
	return latest
}

// Node returns the caller's node id.
func (c *Caller) Node() string { return c.node }

// Model returns the caller's latency model.
func (c *Caller) Model() vclock.LatencyModel { return c.model }

// Calls returns the number of RPCs issued by this caller.
func (c *Caller) Calls() int64 { return c.calls.Load() }

// Pace attaches a vclock.Pacer: every Call then synchronizes this
// caller's virtual clock with the other participants before issuing, so
// resource queueing stays accurate under arbitrary goroutine scheduling
// (see vclock.Pacer). id is this caller's participant index.
func (c *Caller) Pace(p *vclock.Pacer, id int) {
	c.pacer = p
	c.pacerID = id
}

// Call sends method to addr with the request body, charging one-way wire
// latency plus per-KiB transfer each direction. It returns the virtual
// time at which the response reaches the caller.
func (c *Caller) Call(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	if c.pacer != nil {
		// Batched advancement: the common case takes no lock, so the
		// pacer is not a global serialization point across the region's
		// clients (see vclock.Pacer.AdvanceBatched).
		c.pacer.AdvanceBatched(c.pacerID, at)
	}
	c.calls.Add(1)
	same := c.node == NodeOf(addr)
	sendAt := at.Add(c.model.OneWay(same) + c.model.Transfer(len(body)))
	var done vclock.Time
	var resp []byte
	var err error
	if tv := c.trace.Load(); tv != 0 && c.traceInv != nil {
		tc := unpackTrace(tv)
		tc.Hops++
		done, resp, err = c.traceInv.InvokeTrace(addr, method, sendAt, tc, body)
	} else {
		done, resp, err = c.transport.Invoke(addr, method, sendAt, body)
	}
	if done < sendAt {
		done = sendAt
	}
	recvAt := done.Add(c.model.OneWay(same) + c.model.Transfer(len(resp)))
	if err != nil {
		// Normalize to the sentinel set; unknown errors pass through.
		if code := fsapi.CodeOf(err); code != fsapi.CodeOther {
			err = fsapi.ErrOf(code, "")
		}
	}
	return recvAt, resp, err
}
