package dht

import (
	"fmt"
	"testing"
)

func BenchmarkLookup16Members(b *testing.B) {
	members := make([]string, 16)
	for i := range members {
		members[i] = fmt.Sprintf("node%d/cache", i)
	}
	r := NewWithMembers(0, members...)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("/scratch/app/rank%04d/out.%d", i%320, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Lookup(keys[i%len(keys)]) == "" {
			b.Fatal("empty owner")
		}
	}
}

// BenchmarkGroupByOwner16 groups a StatMulti-sized batch on a
// region-sized ring: two allocations (the index array and the groups)
// whatever the key count.
func BenchmarkGroupByOwner16(b *testing.B) {
	r := NewWithMembers(0, "node0/cache", "node1/cache", "node2/cache", "node3/cache")
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("/scratch/app/rank0007/out.%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.GroupByOwner(keys)) == 0 {
			b.Fatal("no groups")
		}
	}
}
