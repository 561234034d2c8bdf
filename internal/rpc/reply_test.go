package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// halfService answers "half" by appending part of a reply and then
// failing, and "whole" by appending a reply and succeeding.
func halfService() *Service {
	svc := NewService()
	svc.HandleInto("half", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		reply.String("the first half of a reply")
		return at, fsapi.ErrStale
	})
	svc.HandleInto("whole", func(at vclock.Time, body []byte, reply *wire.Encoder) (vclock.Time, error) {
		reply.Raw(body)
		return at, nil
	})
	return svc
}

// TestFailedHandlerDeliversNoBytes: a handler that appends half a reply
// and then fails delivers its error and nothing else, on both
// transports — the caller's encoder keeps exactly what it held before,
// and the charge for the way back is that of an empty reply.
func TestFailedHandlerDeliversNoBytes(t *testing.T) {
	bus := NewBus()
	bus.Register("n/svc", halfService())
	tcp := NewTCPNetwork()
	defer tcp.Close()
	tcp.Register("n/svc", halfService())
	model := vclock.LatencyModel{CrossNodeRTT: 80e3, PerKB: 1e6}
	for name, tr := range map[string]Transport{"bus": bus, "tcp": tcp} {
		c := NewCaller(tr, model, "x")
		reply := wire.NewEncoder(0)
		reply.String("held before")
		held := string(reply.Bytes())
		done, err := c.CallInto("n/svc", "half", 0, nil, reply)
		if !errors.Is(err, fsapi.ErrStale) || string(reply.Bytes()) != held {
			t.Fatalf("%s: err %v, reply %q; want ErrStale and the encoder as it was", name, err, reply.Bytes())
		}
		if want := vclock.Time(0).Add(model.RTT(false)); done != want {
			t.Fatalf("%s: failed call done at %v, want %v (no reply bytes charged)", name, done, want)
		}
		if _, resp, err := c.Call("n/svc", "half", 0, nil); err == nil || resp != nil {
			t.Fatalf("%s: Call = %q, %v", name, resp, err)
		}
		if _, resp, err := c.Call("n/svc", "whole", 0, []byte("ok")); err != nil || string(resp) != "ok" {
			t.Fatalf("%s: the connection after a failed call: %q, %v", name, resp, err)
		}
	}
}

// TestTCPSendsNoPartialBody reads the server's response frame off the
// socket: a failed handler's half-written reply never leaves the server.
func TestTCPSendsNoPartialBody(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", halfService())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	e := wire.NewEncoder(32)
	e.Uint32(0)
	e.String("half")
	e.Int64(7)
	e.Uvarint(0)
	frame := e.Bytes()
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	in := wire.NewEncoder(0)
	if err := readFrame(bufio.NewReader(conn), in); err != nil {
		t.Fatal(err)
	}
	resp := in.Bytes()
	done, code, payload, err := decodeResponse(resp)
	if err != nil || done != 7 || code != fsapi.CodeStale || len(payload) != 0 {
		t.Fatalf("response frame %x: done %v, code %d, payload %q, err %v; want 7, CodeStale, nothing", resp, done, code, payload, err)
	}
}
