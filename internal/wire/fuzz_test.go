package wire

import "testing"

// FuzzDecoder feeds arbitrary bytes through every decode method; the
// contract is "no panics, errors reported via Err" regardless of input.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	e := NewEncoder(64)
	e.String("/w/dir/file")
	e.Uint64(42)
	e.Blob([]byte{1, 2, 3})
	f.Add(append([]byte(nil), e.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.String()
		_ = d.BlobView()
		_ = d.Uvarint()
		_ = d.Varint()
		_ = d.Uint64()
		_ = d.Uint32()
		_ = d.Int64()
		_ = d.Byte()
		_ = d.Bool()
		_ = d.Finish()
		_ = d.Remaining()
	})
}

// FuzzRoundTrip checks encode→decode identity for arbitrary content.
func FuzzRoundTrip(f *testing.F) {
	f.Add("path", []byte("value"), uint64(7))
	f.Add("", []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, s string, b []byte, u uint64) {
		e := NewEncoder(16)
		e.String(s)
		e.Blob(b)
		e.Uvarint(u)
		d := NewDecoder(e.Bytes())
		if got := d.String(); got != s {
			t.Fatalf("string %q -> %q", s, got)
		}
		if got := d.BlobView(); string(got) != string(b) {
			t.Fatalf("blob mismatch")
		}
		if got := d.Uvarint(); got != u {
			t.Fatalf("uvarint %d -> %d", u, got)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}
