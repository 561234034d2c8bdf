package memcache

import (
	"sort"
	"testing"
)

// Minimal well-formed cache values for header-flag tests: byte 0 is the
// flag set (bit 0 dirty, bit 1 removed), byte 1 a one-byte uvarint seq.
var (
	cleanVal   = []byte{0, 1}
	dirtyVal   = []byte{HdrDirty, 1}
	removedVal = []byte{HdrRemoved, 1}
)

// TestCommittedItemsFiltersFlags: only entries whose header carries
// neither dirty nor removed may enter the audit sample, and malformed
// (headerless) values are never audited.
func TestCommittedItemsFiltersFlags(t *testing.T) {
	s := testServer(ServerConfig{})
	mustSet := func(key string, val []byte) {
		t.Helper()
		if _, _, err := s.Set(0, key, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustSet("/w/clean-a", cleanVal)
	mustSet("/w/clean-b", cleanVal)
	mustSet("/w/dirty", dirtyVal)
	mustSet("/w/removed", removedVal)
	mustSet("/w/short", []byte{0}) // no room for a seq: malformed

	got := s.CommittedItems(-1)
	keys := make([]string, 0, len(got))
	for _, kv := range got {
		keys = append(keys, kv.Key)
		if string(kv.Value) != string(cleanVal) {
			t.Fatalf("committed item %s carries value %v", kv.Key, kv.Value)
		}
	}
	sort.Strings(keys)
	want := []string{"/w/clean-a", "/w/clean-b"}
	if len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("CommittedItems = %v, want %v", keys, want)
	}
}

// TestCommittedItemsReturnsCopies: mutating a returned value must not
// reach the resident item — the auditor decodes outside the shard lock.
func TestCommittedItemsReturnsCopies(t *testing.T) {
	s := testServer(ServerConfig{})
	if _, _, err := s.Set(0, "/w/k", cleanVal, 0); err != nil {
		t.Fatal(err)
	}
	got := s.CommittedItems(-1)
	if len(got) != 1 {
		t.Fatalf("sampled %d items, want 1", len(got))
	}
	got[0].Value[0] = HdrDirty
	if again := s.CommittedItems(-1); len(again) != 1 {
		t.Fatal("resident value mutated through the audit sample")
	}
}

// TestCommittedItemsLimit: limit bounds the sample; zero means sample
// nothing, negative means everything.
func TestCommittedItemsLimit(t *testing.T) {
	s := testServer(ServerConfig{})
	for _, k := range []string{"/w/a", "/w/b", "/w/c", "/w/d"} {
		if _, _, err := s.Set(0, k, cleanVal, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CommittedItems(2); len(got) != 2 {
		t.Fatalf("limit 2 sampled %d", len(got))
	}
	if got := s.CommittedItems(0); len(got) != 0 {
		t.Fatalf("limit 0 sampled %d", len(got))
	}
	if got := s.CommittedItems(-1); len(got) != 4 {
		t.Fatalf("unlimited sampled %d, want 4", len(got))
	}
}
