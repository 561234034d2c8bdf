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
//
// A reply is a buffer the caller owns: Caller.CallInto appends it to a
// wire.Encoder the caller supplies, typically pooled, decodes in place
// and puts back. On the Bus the handler writes into that encoder itself.
package rpc

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Handler serves one RPC method. `at` is the virtual time the request
// reaches the service (wire latency already added by the caller); the
// returned time is when the service finished, typically
// resource.Acquire(at, cost). The handler appends its reply to reply, an
// encoder the transport passes in — the caller's own on the Bus, the
// frame encoder on a TCP server — and body and reply are the handler's
// for its run only. A handler that fails delivers its error and no reply
// bytes: whatever it had appended is dropped (Service.dispatch).
type Handler func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error)

// Service is a method mux registered under one address.
type Service struct {
	mu      sync.RWMutex
	methods map[string]endpoint
}

// endpoint is a registered handler and the name it was registered under:
// the TCP server turns a frame's method bytes into that string without
// allocating one per request (Service.name).
type endpoint struct {
	name string
	h    Handler
}

// NewService returns an empty method mux.
func NewService() *Service { return &Service{methods: make(map[string]endpoint)} }

// HandleInto registers a handler for method. Re-registering replaces.
func (s *Service) HandleInto(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[method] = endpoint{name: method, h: h}
}

// Handle registers a handler that returns its reply as a slice — the form
// code outside internal/ registers with. It is HandleInto with the slice
// appended to the reply.
func (s *Service) Handle(method string, h func(at vclock.Time, body []byte) (vclock.Time, []byte, error)) {
	s.HandleInto(method, func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		done, resp, err := h(at, body)
		reply.Raw(resp)
		return done, err
	})
}

// name returns method as the string it was registered under, or a copy
// of it when no handler has that name.
func (s *Service) name(method []byte) string {
	s.mu.RLock()
	ep, ok := s.methods[string(method)]
	s.mu.RUnlock()
	if ok {
		return ep.name
	}
	return string(method)
}

// dispatch runs the handler for method, appending its reply to reply —
// the one dispatch path of both transports. A failed call leaves reply as
// it found it.
func (s *Service) dispatch(method string, at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
	s.mu.RLock()
	h := s.methods[method].h
	s.mu.RUnlock()
	if h == nil {
		return at, fmt.Errorf("rpc: unknown method %q", method)
	}
	start := reply.Len()
	done, err := h(at, body, reply)
	if err != nil {
		reply.Truncate(start)
	}
	return done, err
}

// Transport delivers a request to the service at a logical address. The
// reply comes back as a slice the caller keeps.
type Transport interface {
	Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error)
}

// ReplyInvoker is the optional in-place form of a Transport: the request
// carries its trace context (zero: untraced), and the reply is appended
// to an encoder the caller supplies — on success only — rather than
// returned as a slice of its own. The Bus and TCP implement it. It is
// deliberately not part of Transport or Network: a wrapper that embeds
// one of those hides it, and its Caller then sends every round trip
// through the wrapper's Invoke.
type ReplyInvoker interface {
	InvokeInto(addr, method string, at vclock.Time, tc TraceContext, body []byte, reply *wire.Encoder) (vclock.Time, error)
}

// invokeCopy is Invoke over a ReplyInvoker: the reply lands in a pooled
// encoder and leaves as a copy of its own (nil when empty).
func invokeCopy(t ReplyInvoker, addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	reply := wire.GetEncoder()
	done, err := t.InvokeInto(addr, method, at, TraceContext{}, body, reply)
	resp := append([]byte(nil), reply.Bytes()...)
	wire.PutEncoder(reply)
	return done, resp, err
}

// inlineTransport is the optional property of a transport whose Invoke
// runs the handler on the calling goroutine and returns when it has.
// Round trips on such a transport cannot overlap in real time, so a
// caller fanning out from one virtual instant loses nothing by issuing
// them one after another (see Caller.FanOut). The Bus reports it; TCP,
// where the waits do overlap, does not.
type inlineTransport interface {
	HandlersRunInline() bool
}

// Bus is the in-process transport: a registry of logical address →
// Service. Safe for concurrent use.
type Bus struct {
	mu       sync.RWMutex
	services map[string]*Service

	obs atomic.Pointer[RPCObserver]
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
	return invokeCopy(b, addr, method, at, body)
}

// InvokeInto implements ReplyInvoker: the handler runs on the calling
// goroutine and appends its reply straight into the caller's encoder. A
// sampled trace context additionally reports the dispatch window to the
// installed observer's SpanObserver side, recording the server's part
// of the span.
func (b *Bus) InvokeInto(addr, method string, at vclock.Time, tc TraceContext, body []byte, reply *wire.Encoder) (vclock.Time, error) {
	b.mu.RLock()
	svc := b.services[addr]
	b.mu.RUnlock()
	if svc == nil {
		return at, fmt.Errorf("rpc: no service at %q: %w", addr, fsapi.ErrClosed)
	}
	p := b.obs.Load()
	if p == nil {
		return svc.dispatch(method, at, body, reply)
	}
	start := time.Now()
	done, err := svc.dispatch(method, at, body, reply)
	d := time.Since(start)
	(*p).ObserveRPC(addr, method, d, err)
	if tc.Span != 0 && tc.Sampled {
		if so, ok := (*p).(SpanObserver); ok {
			so.ObserveServerSpan(tc.Span, tc.Hops, addr, method, start, d, err)
		}
	}
	return done, err
}

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
	// into is the transport's ReplyInvoker view, asserted once at
	// construction; nil sends every call through Invoke, and trace
	// contexts nowhere.
	into ReplyInvoker
	// inline is the transport's inlineTransport answer, asked once.
	inline bool
	model  vclock.LatencyModel
	node   string

	pacer   *vclock.Pacer
	pacerID int

	// trace is the packed TraceContext tagging outgoing calls
	// (0 = untraced; see trace.go).
	trace atomic.Uint64
}

// NewCaller builds a caller for a client running on `node`.
func NewCaller(t Transport, model vclock.LatencyModel, node string) *Caller {
	into, _ := t.(ReplyInvoker)
	it, ok := t.(inlineTransport)
	return &Caller{transport: t, into: into, inline: ok && it.HandlersRunInline(), model: model, node: node}
}

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
// handlers on the calling goroutine (inlineTransport) there is no wait to
// overlap and the virtual completion is the same either way, so a
// caller that does not ask to block runs its calls right here too, one
// after another. block keeps the goroutines on every transport: the
// caller then gives the processor up for the length of the fan-out, as
// a process waiting on a network would. The DFS client's per-shard
// batches ask for it, until a scheduler runs goroutines in virtual-time
// order: an unpaced commit process on one P otherwise never yields
// between waves, and a 4-shard region's drain then takes up to 2.5× the
// virtual time.
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

// Pace attaches a vclock.Pacer: every Call then synchronizes this
// caller's virtual clock with the other participants before issuing, so
// resource queueing stays accurate under arbitrary goroutine scheduling
// (see vclock.Pacer). id is this caller's participant index.
func (c *Caller) Pace(p *vclock.Pacer, id int) {
	c.pacer = p
	c.pacerID = id
}

// Advance synchronizes the caller's clock with the pacer as a call issued
// at at would, without issuing one: a call that then leaves at at does not
// block. No-op on an unpaced caller.
func (c *Caller) Advance(at vclock.Time) {
	if c.pacer != nil {
		// Batched advancement: the common case takes no lock, so the
		// pacer is not a global serialization point across the region's
		// clients (see vclock.Pacer.AdvanceBatched).
		c.pacer.AdvanceBatched(c.pacerID, at)
	}
}

// CallInto sends method to addr with the request body and appends the
// reply to reply, charging one-way wire latency plus per-KiB transfer
// each direction. It returns the virtual time at which the reply reaches
// the caller. reply is the caller's: it is usually a pooled encoder,
// decoded in place and put back, so a view decoded from it lives until
// then. A failed call appends nothing.
func (c *Caller) CallInto(addr, method string, at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
	c.Advance(at)
	same := c.node == NodeOf(addr)
	sendAt := at.Add(c.model.OneWay(same) + c.model.Transfer(len(body)))
	start := reply.Len()
	var done vclock.Time
	var err error
	if c.into != nil {
		var tc TraceContext
		if tv := c.trace.Load(); tv != 0 {
			tc = unpackTrace(tv)
			tc.Hops++
		}
		done, err = c.into.InvokeInto(addr, method, sendAt, tc, body, reply)
	} else {
		var resp []byte
		if done, resp, err = c.transport.Invoke(addr, method, sendAt, body); err == nil {
			reply.Raw(resp)
		}
	}
	if done < sendAt {
		done = sendAt
	}
	recvAt := done.Add(c.model.OneWay(same) + c.model.Transfer(reply.Len()-start))
	if err != nil {
		// Normalize to the sentinel set; unknown errors pass through.
		if code := fsapi.CodeOf(err); code != fsapi.CodeOther {
			err = fsapi.ErrOf(code, "")
		}
	}
	return recvAt, err
}

// Call is CallInto for a caller that keeps the reply: it comes back as a
// slice of its own (nil when empty).
func (c *Caller) Call(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	reply := wire.GetEncoder()
	done, err := c.CallInto(addr, method, at, body, reply)
	resp := append([]byte(nil), reply.Bytes()...)
	wire.PutEncoder(reply)
	return done, resp, err
}
