// Allocation gates for the pooled codec. testing.AllocsPerRun is
// meaningless under the race detector (instrumentation allocates), so
// this file is excluded from -race builds; `make check` runs the
// package both ways.
//go:build !race

package wire

import "testing"

// TestPooledRoundTripZeroAlloc pins the pooled encode+decode round trip
// of a small op frame (string key, flags, cas, value blob — the shape
// every cache RPC pushes through the codec) at zero heap allocations.
// The decode side reads the key and value as views into the frame;
// copying out (String) is the caller's explicit choice and cost.
func TestPooledRoundTripZeroAlloc(t *testing.T) {
	const key = "/w/some/metadata/path"
	value := make([]byte, 96)
	allocs := testing.AllocsPerRun(1000, func() {
		e := GetEncoder()
		e.String(key)
		e.Uint32(7)
		e.Uint64(42)
		e.Blob(value)

		d := GetDecoder(e.Bytes())
		k := d.BlobView() // strings and blobs share framing
		flags := d.Uint32()
		cas := d.Uint64()
		v := d.BlobView()
		err := d.Finish()
		PutDecoder(d)
		PutEncoder(e)
		if err != nil || string(k) != key || flags != 7 || cas != 42 || len(v) != 96 {
			t.Fatal("round trip mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestDecoderPoolReset guards the pool contract: a recycled decoder
// carries no state from its previous frame.
func TestDecoderPoolReset(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	e.String("stale")
	d := GetDecoder(e.Bytes())
	_ = d.String()
	_ = d.Byte() // drive it into an error state past the end
	if d.Err() == nil {
		t.Fatal("expected overrun error")
	}
	PutDecoder(d)

	d2 := GetDecoder([]byte{1, 'x'})
	defer PutDecoder(d2)
	if got := d2.String(); got != "x" || d2.Err() != nil {
		t.Fatalf("recycled decoder: %q err=%v", got, d2.Err())
	}
}
