package dht

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if got := r.Lookup("/a/b"); got != "" {
		t.Fatalf("empty ring lookup = %q", got)
	}
	if len(r.members) != 0 {
		t.Fatal("empty ring size != 0")
	}
}

func TestSingleMemberOwnsEverything(t *testing.T) {
	r := NewWithMembers(0, "node0")
	for i := 0; i < 100; i++ {
		if got := r.Lookup(fmt.Sprintf("/w/f%d", i)); got != "node0" {
			t.Fatalf("key %d -> %q", i, got)
		}
	}
}

func TestLookupDeterministic(t *testing.T) {
	r := NewWithMembers(0, "a", "b", "c", "d")
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("/dir/file%d", i)
		first := r.Lookup(k)
		for j := 0; j < 5; j++ {
			if r.Lookup(k) != first {
				t.Fatalf("lookup of %q not deterministic", k)
			}
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := NewWithMembers(0, "a", "b")
	before := r.Lookup("/x")
	r.Add("a")
	if len(r.members) != 2 {
		t.Fatalf("size = %d", len(r.members))
	}
	if r.Lookup("/x") != before {
		t.Fatal("re-adding member moved keys")
	}
}

func TestBalance(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	r := NewWithMembers(0, members...)
	counts := make(map[string]int)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Lookup(fmt.Sprintf("/app/rank%d/out.%d", i%320, i))]++
	}
	want := n / len(members)
	for _, m := range members {
		c := counts[m]
		if c < want/2 || c > want*2 {
			t.Fatalf("member %s owns %d keys, want within [%d,%d]", m, c, want/2, want*2)
		}
	}
}

func TestMembersSorted(t *testing.T) {
	r := NewWithMembers(0, "z", "a", "m")
	got := r.Members()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("Members() = %v", got)
	}
}

// Property: every key maps to a current member.
func TestLookupAlwaysReturnsMemberProperty(t *testing.T) {
	r := NewWithMembers(4, "a", "b", "c")
	valid := map[string]bool{"a": true, "b": true, "c": true}
	f := func(key string) bool { return valid[r.Lookup(key)] }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentLookupDuringMembershipChange(t *testing.T) {
	r := NewWithMembers(0, "a", "b")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Add(fmt.Sprintf("extra%d", i))
		}
	}()
	for i := 0; i < 1000; i++ {
		if r.Lookup(fmt.Sprintf("/k%d", i)) == "" {
			t.Fatal("lookup returned empty on non-empty ring")
		}
	}
	<-done
}

// TestGroupByOwnerMatchesLookup: every position lands in exactly one
// group — its Lookup owner's — groups come in Members order, and
// positions ascend within a group, so duplicates keep their input order.
func TestGroupByOwnerMatchesLookup(t *testing.T) {
	r := NewWithMembers(0, "n3", "n0", "n2", "n1")
	keys := make([]string, 0, 66)
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("/w/dir%d/f%d", i%5, i))
	}
	keys = append(keys, keys[7], keys[7]) // duplicates
	groups := r.GroupByOwner(keys)
	seen := make([]bool, len(keys))
	for gi, g := range groups {
		if gi > 0 && groups[gi-1].Owner >= g.Owner {
			t.Fatalf("groups out of member order: %q before %q", groups[gi-1].Owner, g.Owner)
		}
		if len(g.Idx) == 0 {
			t.Fatalf("empty group for %q", g.Owner)
		}
		for j, i := range g.Idx {
			if j > 0 && g.Idx[j-1] >= i {
				t.Fatalf("group %q positions not ascending: %v", g.Owner, g.Idx)
			}
			if seen[i] {
				t.Fatalf("position %d grouped twice", i)
			}
			seen[i] = true
			if want := r.Lookup(keys[i]); want != g.Owner {
				t.Fatalf("key %q grouped under %q, Lookup says %q", keys[i], g.Owner, want)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("position %d (%q) in no group", i, keys[i])
		}
	}
}

func TestGroupByOwnerEdges(t *testing.T) {
	if got := NewWithMembers(0, "a").GroupByOwner(nil); len(got) != 0 {
		t.Fatalf("no keys grouped into %v", got)
	}
	// An empty ring has no owner to give: one group under "", which no
	// transport resolves, so callers fail those keys instead of
	// dropping them.
	got := New(0).GroupByOwner([]string{"/a", "/b", "/a"})
	if len(got) != 1 || got[0].Owner != "" || len(got[0].Idx) != 3 || got[0].Idx[2] != 2 {
		t.Fatalf("empty ring grouping = %+v", got)
	}
	// A member that owns none of the keys gets no group.
	r := NewWithMembers(0, "a", "b", "c", "d")
	one := r.GroupByOwner([]string{"/only"})
	if len(one) != 1 || one[0].Owner != r.Lookup("/only") || len(one[0].Idx) != 1 || one[0].Idx[0] != 0 {
		t.Fatalf("single-key grouping = %+v", one)
	}
}

// TestGroupIntoReusesItsStorage: one Grouping carried across batches of
// every size gives what fresh storage gives each batch, and once it has
// seen the largest batch a call allocates nothing.
func TestGroupIntoReusesItsStorage(t *testing.T) {
	r := NewWithMembers(0, "n0", "n1", "n2", "n3")
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("/w/f%d", i)
	}
	var g Grouping
	for _, n := range []int{40, 1, 7, 0, 40, 3, 16} {
		key := func(i int) string { return keys[i] }
		got, want := r.GroupInto(&g, n, key), r.GroupByOwner(keys[:n])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d keys: reused storage grouped %v, fresh %v", n, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { r.GroupInto(&g, n, key) }); allocs != 0 {
			t.Fatalf("%d keys: %.0f allocs on reused storage", n, allocs)
		}
	}
	var empty Grouping
	if got := New(0).GroupInto(&empty, 2, func(i int) string { return keys[i] }); len(got) != 1 || got[0].Owner != "" || len(got[0].Idx) != 2 {
		t.Fatalf("empty ring grouping = %+v", got)
	}
}
