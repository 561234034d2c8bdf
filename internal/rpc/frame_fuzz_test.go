package rpc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"pacon/internal/wire"
)

// frameOf prefixes body with its u32 length, as a frame travels.
func frameOf(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// requestFrame is a request as a client sends it, length prefix included.
func requestFrame(method string, at int64, tc TraceContext, body []byte) []byte {
	e := wire.NewEncoder(32 + len(body))
	e.String(method)
	e.Int64(at)
	e.Uvarint(tc.pack())
	e.Raw(body)
	return frameOf(e.Bytes())
}

// FuzzTCPFrame feeds a byte stream — what a peer controls — to the TCP
// frame codec: readFrame, then each frame as a request (method, virtual
// time, the packed trace-context varint, body) and as a response (done,
// code, payload). No input panics; the request decode is exact (the
// body is the rest of the frame, and the trace word survives
// unpack/pack); and, as FuzzMultiKeyHandlers asserts of the cache
// handlers, what a frame costs follows the bytes that arrived, not the
// length its header claims: readFrame grows its buffer as the body
// comes in, so a header announcing 16 MiB over a few bytes allocates a
// step, not the 16 MiB.
func FuzzTCPFrame(f *testing.F) {
	f.Add(requestFrame("get", 42, TraceContext{}, []byte{4, '/', 'w', '/', 'a'}))
	f.Add(requestFrame("get_multi", -1, TraceContext{Span: 1<<55 - 1, Sampled: true, Hops: 255}, nil))
	f.Add(append(requestFrame("ping", 0, TraceContext{Span: 9, Sampled: true, Hops: 1}, nil), requestFrame("echo", 1, TraceContext{}, []byte("two frames"))...))
	resp := binary.LittleEndian.AppendUint64(nil, 77)
	f.Add(frameOf(append(resp, 0, 'o', 'k')))                                                         // a reply
	f.Add(frameOf(append(resp, 11, 'x')))                                                             // an error with its detail
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3})                                                                // 16 MiB announced, 3 bytes sent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                                             // beyond maxFrame
	f.Add([]byte{0, 0, 0, 0})                                                                         // an empty frame
	f.Add([]byte{1, 0})                                                                               // a cut header
	f.Add(frameOf(append([]byte{1, 'g', 0, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 11)...))) // an overlong trace varint

	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var frames [][]byte
		for {
			e := wire.NewEncoder(0)
			if readFrame(r, e) != nil {
				if e.Len() != 0 {
					t.Fatalf("a failed read left %d bytes in the encoder", e.Len())
				}
				break
			}
			frames = append(frames, e.Bytes())
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(64*len(stream)+1<<16) {
			t.Fatalf("reading a %d-byte stream allocated %d bytes", len(stream), got)
		}
		for _, frame := range frames {
			if req, err := decodeRequest(frame); err == nil {
				// The body is the rest of the frame, and the request encodes
				// back to one that decodes the same: method, time, and the
				// trace word through unpack and pack, whatever bits it had.
				if len(req.method)+len(req.body) > len(frame) || !bytes.Equal(req.body, frame[len(frame)-len(req.body):]) {
					t.Fatalf("request %x: method %q and body %q are not the frame's", frame, req.method, req.body)
				}
				again, err := decodeRequest(requestFrame(string(req.method), int64(req.at), req.tc, req.body)[4:])
				if err != nil || string(again.method) != string(req.method) || again.at != req.at || again.tc != req.tc || !bytes.Equal(again.body, req.body) {
					t.Fatalf("request %x re-encoded decodes as %+v, %v; want %+v", frame, again, err, req)
				}
			}
			if _, _, payload, err := decodeResponse(frame); err == nil && len(payload) != len(frame)-9 {
				t.Fatalf("response %x: %d-byte payload", frame, len(payload))
			}
		}
	})
}
