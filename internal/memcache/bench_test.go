package memcache

import (
	"fmt"
	"math/rand"
	"testing"

	"pacon/internal/vclock"
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

// BenchmarkSettleMulti is the commit wave's cleanup fan-out alone: 8
// conditional deletes over 4 cache servers on the Bus, one settle_multi
// per owner. make alloc-gate pins it: the grouping, the result slots and
// the fan-out's function are pooled scratch, so what is left is the
// servers' share of the requests.
func BenchmarkSettleMulti(b *testing.B) {
	c, servers := clusterEnv(b, 4)
	// Two keys per server.
	var entries []Settle
	per := map[string]int{}
	for i := 0; len(entries) < 8; i++ {
		key := fmt.Sprintf("/w/f%d", i)
		if per[c.Owner(key)] == 2 {
			continue
		}
		per[c.Owner(key)]++
		entries = append(entries, Settle{Key: key, Cond: CondSeqRemoved, Seq: 1})
		if _, _, err := c.Set(0, key, []byte("v"), 0); err != nil {
			b.Fatal(err)
		}
	}
	if _, owners, _, err := c.SettleMulti(0, entries); err != nil || owners != len(servers) {
		b.Fatalf("%d keys reached %d of %d servers: %v", len(entries), owners, len(servers), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.SettleMulti(0, entries); err != nil {
			b.Fatal(err)
		}
	}
}
