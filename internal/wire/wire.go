// Package wire implements the compact binary codec used on every RPC
// payload in this repository: uvarint-length framing for strings and
// blobs, fixed-width integers in little-endian, and a sticky-error
// Decoder so call sites can decode whole messages before checking one
// error. The codec is deliberately reflection-free: metadata records are
// tiny and encode/decode sits on the hot path of every simulated op.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrTruncated reports a decode past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLong reports a string/blob length field that exceeds the
// remaining buffer (corrupt or hostile input).
var ErrTooLong = errors.New("wire: declared length exceeds buffer")

// Encoder appends primitive values to a growing buffer. The zero value
// is ready to use; Reuse with Reset to amortize allocations.
type Encoder struct{ buf []byte }

// NewEncoder returns an encoder with the given capacity hint.
func NewEncoder(capHint int) *Encoder { return &Encoder{buf: make([]byte, 0, capHint)} }

// encoderPool recycles encoders across RPCs, request and reply alike.
// Every simulated op builds at least one tiny wire message and receives
// one, so the allocations otherwise dominate the hot path (see
// BenchmarkEncoderPooled).
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// poolMaxCap bounds the buffers the pool retains: one oversized frame
// (a data chunk, a big readdir) must not pin megabytes forever.
const poolMaxCap = 64 << 10

// GetEncoder returns an empty encoder from the pool. Pair with
// PutEncoder once the encoded bytes have been handed off.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder recycles e. The caller must be done with every slice
// obtained from e.Bytes(), and with every view decoded from one
// (Decoder.BlobView): they alias e's buffer, which the next GetEncoder
// hands to someone else. In this repository every encoder has one
// owner, who puts it back: a request body's is the caller's (transports
// consume the frame before the call returns), and so is a reply's — an
// RPC reply is appended to an encoder the caller passes in
// (rpc.Caller.CallInto), decoded in place, and put back after decoding.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > poolMaxCap {
		return
	}
	encoderPool.Put(e)
}

// Bytes returns the encoded message. The slice aliases the encoder's
// buffer; callers that retain it across Reset must copy.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate drops everything after the first n bytes — what a reply
// holds when the handler that was appending it fails.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// Raw appends b as it is, with no length prefix: an already-encoded
// message, or the rest of a frame whose length the frame header gives.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Grow extends the message by n bytes and returns them for the caller to
// fill — how a transport reads a frame straight into an encoder.
func (e *Encoder) Grow(n int) []byte {
	l := len(e.buf)
	if cap(e.buf)-l < n {
		// One allocation whatever the build (slices.Grow's append of a
		// make is two under -race), doubling so that reading a frame a
		// step at a time copies it a bounded number of times.
		grown := make([]byte, l, max(2*cap(e.buf), l+n))
		copy(grown, e.buf)
		e.buf = grown
	}
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

// Byte appends a raw byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Uint32 appends a fixed-width little-endian uint32.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Uint64 appends a fixed-width little-endian uint64.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int64 appends a fixed-width int64 (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Uvarint appends a varint-encoded unsigned integer.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zigzag varint-encoded signed integer: small values of
// either sign take few bytes.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// String appends a uvarint length followed by the raw bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a uvarint length followed by the blob. A nil slice
// round-trips as an empty one.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Strings appends a uvarint count followed by each string. A nil slice
// round-trips as an empty one.
func (e *Encoder) Strings(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Decoder consumes a buffer produced by Encoder. The first failure
// sticks: subsequent reads return zero values and Err reports the cause.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a buffer for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// decoderPool recycles decoders across RPCs, symmetrically with
// encoderPool: every request is decoded at least once (server side) and
// most responses once more (client side), so the per-op Decoder
// allocations otherwise rival the encoder's on the hot path.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled decoder wrapping b. Pair with PutDecoder
// once every value read from it has been consumed or copied.
func GetDecoder(b []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(b)
	return d
}

// PutDecoder recycles d. The caller must be done with the decoder itself
// (values read from it are unaffected: String copies out of the buffer,
// and BlobView slices alias the input buffer, not the Decoder).
func PutDecoder(d *Decoder) {
	d.Reset(nil)
	decoderPool.Put(d)
}

// Reset rewinds the decoder onto a new buffer, clearing any sticky
// error.
func (d *Decoder) Reset(b []byte) { d.b, d.off, d.err = b, 0, nil }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns an error if decoding failed or bytes remain unread —
// useful to catch schema drift between encoder and decoder.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// Fail records err as the decode error, unless one is recorded already:
// for a reader that finds a value its schema does not allow.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.Fail(ErrTruncated)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uint32 reads a fixed-width little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a fixed-width little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a fixed-width int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Uvarint reads a varint-encoded unsigned integer. A one-byte value
// (most counts, lengths and flags) skips binary.Uvarint's loop.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	b := d.b[d.off:]
	if len(b) > 0 && b[0] < 0x80 {
		d.off++
		return uint64(b[0])
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint-encoded signed integer, as binary.Varint
// does.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > math.MaxInt32 || int(n) > d.Remaining() {
		d.Fail(ErrTooLong)
		return ""
	}
	return string(d.take(int(n)))
}

// Count reads the uvarint element count that opens a repeated field.
// Every element costs at least one byte on the wire, so a count beyond
// Remaining is corrupt: Count fails the decoder with ErrTooLong and
// returns 0, and the caller may size a slice by the result without
// trusting the peer.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.Fail(ErrTooLong)
		return 0
	}
	return int(n)
}

// Strings reads a uvarint count followed by that many strings.
func (d *Decoder) Strings() []string {
	n := d.Count()
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// BlobView reads a length-prefixed byte slice as a view into the buffer,
// uncopied: the caller must not retain it past the buffer's lifetime.
func (d *Decoder) BlobView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > math.MaxInt32 || int(n) > d.Remaining() {
		d.Fail(ErrTooLong)
		return nil
	}
	return d.take(int(n))
}
