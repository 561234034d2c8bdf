package memcache

import (
	"fmt"
	"math/rand"
	"testing"

	"pacon/internal/vclock"
	"pacon/internal/wire"
)

func BenchmarkServerSet(b *testing.B) {
	s := NewServer("bench", ServerConfig{Model: vclock.Default()})
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Set(0, fmt.Sprintf("/w/f%09d", i), val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerGet(b *testing.B) {
	s := NewServer("bench", ServerConfig{Model: vclock.Default()})
	val := make([]byte, 128)
	const n = 50000
	for i := 0; i < n; i++ {
		s.Set(0, fmt.Sprintf("/w/f%09d", i), val, 0)
	}
	rnd := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(0, fmt.Sprintf("/w/f%09d", rnd.Intn(n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerCAS(b *testing.B) {
	s := NewServer("bench", ServerConfig{Model: vclock.Default()})
	cas, _, _ := s.Set(0, "hot", make([]byte, 128), 0)
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err := s.CAS(0, "hot", val, 0, cas)
		if err != nil {
			b.Fatal(err)
		}
		cas = next
	}
}

func BenchmarkClientSetThroughRing(b *testing.B) {
	c, _ := clusterEnv(b, 8)
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Set(0, fmt.Sprintf("/app/rank%d/out.%d", i%320, i), val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerSetParallel(b *testing.B) {
	s := NewServer("bench", ServerConfig{Model: vclock.Default()})
	val := make([]byte, 128)
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Int()
		for pb.Next() {
			i++
			if _, _, err := s.Set(0, fmt.Sprintf("/w/f%d", i), val, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMutateMulti is the commit wave's settle fan-out alone, on a
// test row: 8 conditional deletes that find nothing to delete, over 4
// cache servers on the Bus, one mutate_multi per owner. make alloc-gate
// pins it: the grouping, the result slots and the fan-out's function are
// pooled scratch, and the servers read keys and requests where the frame
// holds them.
func BenchmarkMutateMulti(b *testing.B) {
	c, servers := clusterEnv(b, 4)
	// Two keys per server.
	var keys []string
	per := map[string]int{}
	for i := 0; len(keys) < 8; i++ {
		key := fmt.Sprintf("/w/f%d", i)
		if per[c.Owner(key)] == 2 {
			continue
		}
		per[c.Owner(key)]++
		keys = append(keys, key)
		if _, _, err := c.Set(0, key, makeVal(0), 0); err != nil {
			b.Fatal(err)
		}
	}
	req := delIf(1)
	key := func(i int) string { return keys[i] }
	request := func(_ int, e *wire.Encoder) { e.Raw(req) }
	if _, owners, _, err := c.MutateMulti(0, len(keys), key, request); err != nil || owners != len(servers) {
		b.Fatalf("%d keys reached %d of %d servers: %v", len(keys), owners, len(servers), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.MutateMulti(0, len(keys), key, request); err != nil {
			b.Fatal(err)
		}
	}
}
