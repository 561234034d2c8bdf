package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.Byte(0xAB)
	e.Bool(true)
	e.Bool(false)
	e.Uint32(0xDEADBEEF)
	e.Uint64(1 << 62)
	e.Int64(-12345)
	e.Uvarint(300)
	e.String("hello/world")
	e.Blob([]byte{1, 2, 3})
	e.Blob(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Byte(); got != 0xAB {
		t.Fatalf("Byte = %x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %x", got)
	}
	if got := d.Uint64(); got != 1<<62 {
		t.Fatalf("Uint64 = %x", got)
	}
	if got := d.Int64(); got != -12345 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := d.String(); got != "hello/world" {
		t.Fatalf("String = %q", got)
	}
	if got := d.BlobView(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("BlobView = %v", got)
	}
	if got := d.BlobView(); len(got) != 0 {
		t.Fatalf("nil BlobView = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedDecodeSticks(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(42)
	d := NewDecoder(e.Bytes()[:4])
	if got := d.Uint64(); got != 0 {
		t.Fatalf("truncated Uint64 = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v", d.Err())
	}
	// Error sticks: later reads stay zero and don't panic.
	if d.Byte() != 0 || d.String() != "" || d.BlobView() != nil {
		t.Fatal("reads after error must return zero values")
	}
	if d.Finish() == nil {
		t.Fatal("Finish must report the sticky error")
	}
}

func TestDeclaredLengthBeyondBuffer(t *testing.T) {
	e := NewEncoder(8)
	e.Uvarint(1000) // claims 1000-byte string
	e.buf = append(e.buf, "short"...)
	d := NewDecoder(e.Bytes())
	if got := d.String(); got != "" {
		t.Fatalf("String = %q", got)
	}
	if !errors.Is(d.Err(), ErrTooLong) {
		t.Fatalf("err = %v", d.Err())
	}
}

// TestCountBoundedByRemaining: an element count may not exceed the bytes
// left (every element costs at least one), so a caller can size a slice
// by Count's result; a count that exactly fits is accepted.
func TestCountBoundedByRemaining(t *testing.T) {
	frame := func(count uint64, elems int) []byte {
		e := NewEncoder(16)
		e.Uvarint(count)
		for i := 0; i < elems; i++ {
			e.Byte(7)
		}
		return e.Bytes()
	}
	d := NewDecoder(frame(3, 3))
	if n := d.Count(); n != 3 || d.Err() != nil {
		t.Fatalf("Count = %d, %v, want 3", n, d.Err())
	}
	for _, count := range []uint64{4, 1 << 60} {
		d = NewDecoder(frame(count, 3))
		if n := d.Count(); n != 0 || !errors.Is(d.Err(), ErrTooLong) {
			t.Fatalf("Count of %d over 3 bytes = %d, %v, want 0 and %v", count, n, d.Err(), ErrTooLong)
		}
	}
	if n := NewDecoder(nil).Count(); n != 0 {
		t.Fatalf("Count on an empty frame = %d", n)
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(7)
	e.Byte(9)
	d := NewDecoder(e.Bytes())
	d.Uint32()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish must flag trailing bytes")
	}
}

func TestBlobViewAliases(t *testing.T) {
	e := NewEncoder(8)
	e.Blob([]byte{1, 2, 3})
	buf := e.Bytes()

	view := NewDecoder(buf).BlobView()
	buf[len(buf)-1] = 99
	if view[2] != 99 {
		t.Fatal("BlobView must alias the buffer")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.String("abc")
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset must clear")
	}
	e.String("xy")
	d := NewDecoder(e.Bytes())
	if d.String() != "xy" {
		t.Fatal("reuse after Reset broken")
	}
}

// TestGrowRawTruncate: what a transport does to a reply encoder — Grow
// hands out room behind what is there and keeps it, Raw appends bytes as
// they are, Truncate cuts back to a length, and none of them disturbs
// the bytes before.
func TestGrowRawTruncate(t *testing.T) {
	e := NewEncoder(0)
	e.String("kept")
	held := string(e.Bytes())
	copy(e.Grow(3), "abc")
	e.Raw([]byte("def"))
	if got := string(e.Bytes()); got != held+"abcdef" {
		t.Fatalf("after Grow and Raw: %q", got)
	}
	room := e.Grow(100 << 10) // past any capacity so far
	if len(room) != 100<<10 || e.Len() != len(held)+6+100<<10 || string(e.Bytes()[:len(held)+6]) != held+"abcdef" {
		t.Fatalf("Grow(100 KiB): %d bytes of room, length %d", len(room), e.Len())
	}
	e.Truncate(len(held))
	if got := string(e.Bytes()); got != held {
		t.Fatalf("after Truncate: %q", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(s string, b []byte, u uint64, i, z int64, flag bool) bool {
		e := NewEncoder(32)
		e.String(s)
		e.Blob(b)
		e.Uvarint(u)
		e.Int64(i)
		e.Varint(z)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.BlobView()
		gu := d.Uvarint()
		gi := d.Int64()
		gz := d.Varint()
		gf := d.Bool()
		if d.Finish() != nil {
			return false
		}
		return gs == s && bytes.Equal(gb, b) && gu == u && gi == i && gz == z && gf == flag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVarintsAreEncodingBinarys: Uvarint and Varint write and read exactly
// what encoding/binary does at every width's edges, the decoder's one-byte
// path included, and a decoder refuses what binary.Uvarint refuses (an
// overflow, a cut value).
func TestVarintsAreEncodingBinarys(t *testing.T) {
	var us []uint64
	for shift := 0; shift < 64; shift += 7 {
		us = append(us, 1<<shift-1, 1<<shift, 1<<shift+1)
	}
	us = append(us, math.MaxUint64)
	for _, u := range us {
		e := NewEncoder(10)
		e.Uvarint(u)
		if want := binary.AppendUvarint(nil, u); !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("Uvarint(%d) = %x, binary writes %x", u, e.Bytes(), want)
		}
		if got := NewDecoder(e.Bytes()).Uvarint(); got != u {
			t.Fatalf("Uvarint %d read back as %d", u, got)
		}
		for _, z := range []int64{int64(u), -int64(u), int64(u >> 1), -int64(u >> 1)} {
			e.Reset()
			e.Varint(z)
			if want := binary.AppendVarint(nil, z); !bytes.Equal(e.Bytes(), want) {
				t.Fatalf("Varint(%d) = %x, binary writes %x", z, e.Bytes(), want)
			}
			if got := NewDecoder(e.Bytes()).Varint(); got != z {
				t.Fatalf("Varint %d read back as %d", z, got)
			}
		}
	}
	for _, bad := range [][]byte{{}, {0x80}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}} {
		d := NewDecoder(bad)
		if d.Uvarint(); d.Err() == nil {
			t.Fatalf("Uvarint of %x decoded", bad)
		}
	}
}

func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDecoder(b)
		_ = d.String()
		d.BlobView()
		d.Uvarint()
		d.Varint()
		d.Uint64()
		d.Uint32()
		d.Byte()
		d.Bool()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
