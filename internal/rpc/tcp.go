package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// maxFrame bounds a single request/response frame (16 MiB — enough for a
// data-server chunk plus headers).
const maxFrame = 16 << 20

// frameStep is how far ahead of the bytes that have arrived readFrame
// may grow its buffer: a header announcing maxFrame costs a step, not
// maxFrame, until the body comes.
const frameStep = 64 << 10

// TCPServer serves one Service mux over a real TCP listener using
// length-prefixed binary frames. Frame layout (request):
//
//	u32 length | method string | i64 at | uvarint trace | body
//
// (trace is the packed TraceContext, 0 = untraced; the body is the rest
// of the frame) and (response):
//
//	u32 length | i64 done | u8 errcode | payload
//
// where the payload is the handler's reply when errcode is 0 and the
// error's detail text otherwise (empty for a sentinel code).
type TCPServer struct {
	ln  net.Listener
	svc *Service

	// sink, when set, receives the server half of sampled spans whose
	// trace context arrived in the frame (see SetTraceSink).
	sink atomic.Pointer[tcpSink]

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// tcpSink pairs the span observer with the server's logical address —
// the listener only knows its host:port, but span events must carry
// the deployment-level service address ("node3/pacon-app1").
type tcpSink struct {
	addr string
	obs  SpanObserver
}

// SetTraceSink installs the server-side span recorder and tells the
// server which logical address it serves. Safe to call concurrently
// with in-flight requests.
func (s *TCPServer) SetTraceSink(addr string, o SpanObserver) {
	if o == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&tcpSink{addr: addr, obs: o})
}

// ServeTCP starts a server for svc on hostport ("127.0.0.1:0" to pick a
// free port). Use Addr to discover the bound address.
func ServeTCP(hostport string, svc *Service) (*TCPServer, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{ln: ln, svc: svc, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// The request frame lands in a pooled encoder, and the handler appends
	// its reply to another, behind a header filled in once it has
	// returned. Both are taken once a request has begun to arrive: an idle
	// connection holds no buffer.
	for {
		if _, err := br.Peek(1); err != nil {
			return
		}
		in := wire.GetEncoder()
		ok := s.serveFrame(br, bw, in)
		wire.PutEncoder(in)
		if !ok {
			return
		}
	}
}

// serveFrame reads one request into in, dispatches it and writes the
// response; false ends the connection.
func (s *TCPServer) serveFrame(br *bufio.Reader, bw *bufio.Writer, in *wire.Encoder) bool {
	if readFrame(br, in) != nil {
		return false
	}
	req, err := decodeRequest(in.Bytes())
	if err != nil {
		return false
	}
	method := s.svc.name(req.method)
	var start time.Time
	sink := s.sink.Load()
	traced := sink != nil && req.tc.Span != 0 && req.tc.Sampled
	if traced {
		start = time.Now()
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e) // frame fully written (or abandoned) — safe to recycle
	e.Raw(responseHeader[:])
	done, herr := s.svc.dispatch(method, req.at, req.body, e)
	if traced {
		sink.obs.ObserveServerSpan(req.tc.Span, req.tc.Hops, sink.addr, method, start, time.Since(start), herr)
	}
	code := fsapi.CodeOf(herr)
	if code == fsapi.CodeOther {
		e.Raw([]byte(herr.Error()))
	}
	out := e.Bytes()
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	binary.LittleEndian.PutUint64(out[4:], uint64(done))
	out[12] = code
	if _, err := bw.Write(out); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// responseHeader reserves a response frame's length, done and errcode.
var responseHeader [4 + 8 + 1]byte

// request is a decoded request frame; method and body alias the frame.
type request struct {
	method []byte
	at     vclock.Time
	tc     TraceContext
	body   []byte
}

// decodeRequest parses a request frame (without its length prefix).
func decodeRequest(frame []byte) (request, error) {
	d := wire.GetDecoder(frame)
	defer wire.PutDecoder(d)
	req := request{method: d.BlobView(), at: vclock.Time(d.Int64()), tc: unpackTrace(d.Uvarint())}
	req.body = frame[len(frame)-d.Remaining():]
	return req, d.Err()
}

// decodeResponse parses a response frame (without its length prefix)
// into the completion time, the result code and the payload, which
// aliases the frame.
func decodeResponse(frame []byte) (done vclock.Time, code byte, payload []byte, err error) {
	if len(frame) < len(responseHeader)-4 {
		return 0, 0, nil, wire.ErrTruncated
	}
	return vclock.Time(binary.LittleEndian.Uint64(frame)), frame[8], frame[9:], nil
}

// readFrame reads one length-prefixed frame and appends it, without its
// prefix, to e — growing e only as the bytes arrive, at most frameStep
// past them. On failure e is left as it was.
func readFrame(r io.Reader, e *wire.Encoder) error {
	start := e.Len()
	_, err := io.ReadFull(r, e.Grow(4))
	n := int(binary.LittleEndian.Uint32(e.Bytes()[start:]))
	e.Truncate(start)
	switch {
	case err != nil:
		return err
	case n > maxFrame:
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	for left := n; left > 0; left -= frameStep {
		if _, err := io.ReadFull(r, e.Grow(min(left, frameStep))); err != nil {
			e.Truncate(start)
			return err
		}
	}
	return nil
}

// TCPTransport implements Transport over real TCP connections. Logical
// addresses are resolved to host:port through a static table, mirroring
// the node-address lists an HPC application hands to Pacon at init.
type TCPTransport struct {
	mu      sync.Mutex
	resolve map[string]string // logical addr -> host:port
	pools   map[string]*connPool

	obs atomic.Pointer[RPCObserver]
}

// NewTCPTransport builds a transport with a logical→physical address map.
func NewTCPTransport(resolve map[string]string) *TCPTransport {
	table := make(map[string]string, len(resolve))
	for k, v := range resolve {
		table[k] = v
	}
	return &TCPTransport{resolve: table, pools: make(map[string]*connPool)}
}

// AddRoute maps a logical address to a physical host:port.
func (t *TCPTransport) AddRoute(addr, hostport string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve[addr] = hostport
}

// SetObserver installs (or, with nil, removes) the per-round-trip
// instrumentation hook. Safe to call concurrently with Invoke.
func (t *TCPTransport) SetObserver(o RPCObserver) {
	if o == nil {
		t.obs.Store(nil)
		return
	}
	t.obs.Store(&o)
}

// Invoke implements Transport.
func (t *TCPTransport) Invoke(addr, method string, at vclock.Time, body []byte) (vclock.Time, []byte, error) {
	return invokeCopy(t, addr, method, at, body)
}

// InvokeInto implements ReplyInvoker: the packed trace context rides the
// request frame (the serving TCPServer extracts it and records the
// server half of the span through its own sink), and the reply frame is
// read straight into the caller's encoder (tcpConn.roundTrip).
func (t *TCPTransport) InvokeInto(addr, method string, at vclock.Time, tc TraceContext, body []byte, reply *wire.Encoder) (vclock.Time, error) {
	var start time.Time
	obs := t.obs.Load()
	if obs != nil {
		start = time.Now()
	}
	t.mu.Lock()
	hostport, ok := t.resolve[addr]
	if !ok {
		t.mu.Unlock()
		return at, fmt.Errorf("rpc: no route to %q: %w", addr, fsapi.ErrClosed)
	}
	pool := t.pools[hostport]
	if pool == nil {
		pool = &connPool{hostport: hostport}
		t.pools[hostport] = pool
	}
	t.mu.Unlock()

	c, err := pool.get()
	if err != nil {
		return at, err
	}
	done, rerr, ioErr := c.roundTrip(method, at, tc, body, reply)
	if ioErr != nil {
		c.close()
		if obs != nil {
			(*obs).ObserveRPC(addr, method, time.Since(start), ioErr)
		}
		return at, ioErr
	}
	pool.put(c)
	if obs != nil {
		(*obs).ObserveRPC(addr, method, time.Since(start), rerr)
	}
	return done, rerr
}

// Close tears down all pooled connections.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.pools {
		p.closeAll()
	}
}

// connPool keeps a small free list of connections per physical endpoint;
// each connection serves one request at a time.
type connPool struct {
	hostport string
	mu       sync.Mutex
	free     []*tcpConn
	closed   bool
}

func (p *connPool) get() (*tcpConn, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, fsapi.ErrClosed
	}
	conn, err := net.Dial("tcp", p.hostport)
	if err != nil {
		return nil, err
	}
	return &tcpConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

func (p *connPool) put(c *tcpConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.free) >= 8 {
		c.close()
		return
	}
	p.free = append(p.free, c)
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.free {
		c.close()
	}
	p.free = nil
}

type tcpConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func (c *tcpConn) close() { c.conn.Close() }

// roundTrip sends one request and appends the reply's payload to reply.
// rerr is the handler's error; ioErr is a transport failure, after which
// the connection is not reused.
func (c *tcpConn) roundTrip(method string, at vclock.Time, tc TraceContext, body []byte, reply *wire.Encoder) (done vclock.Time, rerr, ioErr error) {
	// The header is encoded apart and the body written behind it, so a
	// data chunk is not copied into the frame first.
	e := wire.GetEncoder()
	e.Uint32(0)
	e.String(method)
	e.Int64(int64(at))
	e.Uvarint(tc.pack())
	hdr := e.Bytes()
	binary.LittleEndian.PutUint32(hdr, uint32(len(hdr)-4+len(body)))
	_, err := c.bw.Write(hdr)
	wire.PutEncoder(e) // header copied into the socket buffer — safe to recycle
	if err == nil {
		_, err = c.bw.Write(body)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return at, nil, err
	}
	// The response frame is read straight into the caller's encoder, and
	// its header then cut out from in front of the payload.
	start := reply.Len()
	if err := readFrame(c.br, reply); err != nil {
		return at, nil, err
	}
	done, code, payload, err := decodeResponse(reply.Bytes()[start:])
	switch {
	case err != nil:
		rerr, ioErr = nil, err
	case code != fsapi.CodeOK:
		rerr = fsapi.ErrOf(code, string(payload))
	default:
		reply.Truncate(start + copy(reply.Bytes()[start:], payload))
		return done, nil, nil
	}
	reply.Truncate(start)
	return done, rerr, ioErr
}
