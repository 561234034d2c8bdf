package wire

import "testing"

func BenchmarkEncodeStatSized(b *testing.B) {
	e := NewEncoder(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Byte(1)
		e.Uvarint(0o644)
		e.Uint32(1000)
		e.Uint32(1000)
		e.Int64(4096)
		e.Uint32(1)
		e.Int64(123456789)
		e.Int64(987654321)
		e.Blob(nil)
	}
}

func BenchmarkDecodeStatSized(b *testing.B) {
	e := NewEncoder(128)
	e.Byte(1)
	e.Uvarint(0o644)
	e.Uint32(1000)
	e.Uint32(1000)
	e.Int64(4096)
	e.Uint32(1)
	e.Int64(123456789)
	e.Int64(987654321)
	e.Blob(nil)
	buf := e.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		_ = d.Byte()
		_ = d.Uvarint()
		_ = d.Uint32()
		_ = d.Uint32()
		_ = d.Int64()
		_ = d.Uint32()
		_ = d.Int64()
		_ = d.Int64()
		_ = d.BlobView()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

func BenchmarkStringRoundTrip(b *testing.B) {
	const path = "/scratch/app1/output/rank0042/checkpoint.0017.dat"
	e := NewEncoder(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.String(path)
		d := NewDecoder(e.Bytes())
		if d.String() != path {
			b.Fatal("mismatch")
		}
	}
}

// The two benchmarks below measure the allocation cost of building one
// typical request frame (a memcache store body: key + flags + expect +
// value blob). Run with -benchmem: the fresh-encoder variant allocates a
// buffer per message, the pooled variant amortizes it away — the
// difference is the per-RPC garbage the pool removes from the encode hot
// path.

func buildStoreBody(e *Encoder, key string, value []byte) {
	e.String(key)
	e.Uint32(0)
	e.Uint64(42)
	e.Blob(value)
}

func BenchmarkEncoderFresh(b *testing.B) {
	value := make([]byte, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(len(value) + 20)
		buildStoreBody(e, "/w/some/metadata/path", value)
		_ = e.Bytes()
	}
}

func BenchmarkEncoderPooled(b *testing.B) {
	value := make([]byte, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		buildStoreBody(e, "/w/some/metadata/path", value)
		_ = e.Bytes()
		PutEncoder(e)
	}
}

// BenchmarkPooledRoundTrip is the codec's full hot-path shape: build a
// store body from the pool, then decode it back with a pooled decoder
// reading views. Run with -benchmem; the expected figure is 0 allocs/op
// (gated by TestPooledRoundTripZeroAlloc).
func BenchmarkPooledRoundTrip(b *testing.B) {
	value := make([]byte, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		buildStoreBody(e, "/w/some/metadata/path", value)
		d := GetDecoder(e.Bytes())
		_ = d.BlobView()
		_ = d.Uint32()
		_ = d.Uint64()
		_ = d.BlobView()
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
		PutDecoder(d)
		PutEncoder(e)
	}
}
