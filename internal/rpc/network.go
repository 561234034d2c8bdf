package rpc

import (
	"sync"

	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Network couples a Transport with service registration: enough for a
// whole deployment (DFS, IndexFS, Pacon regions) to be wired up without
// knowing whether it runs in-process or across real sockets. Bus
// implements it for in-process runs; TCPNetwork implements it over real
// listeners.
type Network interface {
	Transport
	// Register binds a service to a logical address.
	Register(addr string, svc *Service)
	// Unregister removes a service (simulates failure/shutdown).
	Unregister(addr string)
}

var (
	_ Network      = (*Bus)(nil)
	_ Network      = (*TCPNetwork)(nil)
	_ ReplyInvoker = (*Bus)(nil)
	_ ReplyInvoker = (*TCPNetwork)(nil)
)

// TCPNetwork is a Network where every registered service listens on a
// real TCP socket (127.0.0.1, kernel-assigned ports) and every call
// crosses the loopback stack with length-prefixed frames. It exists to
// prove the layers above are transport-agnostic: the full Pacon stack
// runs unchanged over it (see TestRegionOverTCP).
type TCPNetwork struct {
	transport *TCPTransport

	mu      sync.Mutex
	servers map[string]*TCPServer
	obs     RPCObserver
}

// NewTCPNetwork returns an empty TCP-backed network.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{
		transport: NewTCPTransport(nil),
		servers:   make(map[string]*TCPServer),
	}
}

// Register implements Network: it starts a real listener for svc and
// routes the logical address to it. Registration failures panic — they
// indicate an unusable host environment, matching Bus's can't-fail
// contract.
func (n *TCPNetwork) Register(addr string, svc *Service) {
	srv, err := ServeTCP("127.0.0.1:0", svc)
	if err != nil {
		panic("rpc: tcp network register " + addr + ": " + err.Error())
	}
	n.mu.Lock()
	if old, ok := n.servers[addr]; ok {
		old.Close()
	}
	n.servers[addr] = srv
	if so, ok := n.obs.(SpanObserver); ok {
		srv.SetTraceSink(addr, so)
	}
	n.mu.Unlock()
	n.transport.AddRoute(addr, srv.Addr())
}

// Unregister implements Network.
func (n *TCPNetwork) Unregister(addr string) {
	n.mu.Lock()
	srv, ok := n.servers[addr]
	delete(n.servers, addr)
	n.mu.Unlock()
	if ok {
		srv.Close()
	}
}

// SetObserver installs the per-round-trip instrumentation hook on the
// underlying TCP transport and — when the observer also implements
// SpanObserver — as every server's trace sink, so sampled spans get
// their server-side events recorded under the serving logical address.
func (n *TCPNetwork) SetObserver(o RPCObserver) {
	n.transport.SetObserver(o)
	so, _ := o.(SpanObserver)
	n.mu.Lock()
	n.obs = o
	for addr, srv := range n.servers {
		srv.SetTraceSink(addr, so)
	}
	n.mu.Unlock()
}

// Invoke implements Transport.
func (n *TCPNetwork) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	return n.transport.Invoke(addr, method, at, body)
}

// InvokeInto implements ReplyInvoker.
func (n *TCPNetwork) InvokeInto(addr, method string, at vclock.Time, tc TraceContext, body []byte, reply *wire.Encoder) (vclock.Time, error) {
	return n.transport.InvokeInto(addr, method, at, tc, body, reply)
}

// Close shuts every listener and pooled connection down.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	servers := n.servers
	n.servers = make(map[string]*TCPServer)
	n.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
	n.transport.Close()
}
