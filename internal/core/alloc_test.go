// Allocation pins for the cache-hit read path. testing.AllocsPerRun is
// meaningless under the race detector (instrumentation allocates), so
// this file is excluded from -race builds, as wire/alloc_test.go is.
//go:build !race

package core

import (
	"fmt"
	"testing"

	"pacon/internal/vclock"
)

// TestCachedReadsAllocateNothing: on the Bus a cache reply is appended
// to a pooled encoder the reader owns and decoded where it landed, so a
// hit copies nothing but the inline bytes the caller receives. A Stat hit
// and readEntry of a value without inline bytes allocate nothing; a
// 16-hit StatMulti allocates its result slice and one Inline copy per
// file that carries bytes — whatever the hits hold, no value copies, no
// per-key results, and no grouping or fan-out scratch (get_multi's is
// pooled).
func TestCachedReadsAllocateNothing(t *testing.T) {
	e := newEnv(t, 4, nil)
	c := e.client(t, "node0")
	now, err := c.Mkdir(0, "/w/d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	bare, inline := make([]string, 16), make([]string, 16)
	for i := range bare {
		bare[i], inline[i] = fmt.Sprintf("/w/d/bare%02d", i), fmt.Sprintf("/w/d/inline%02d", i)
		if now, err = c.Create(now, bare[i], 0o644); err != nil {
			t.Fatal(err)
		}
		if now, err = c.Create(now, inline[i], 0o644); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // every other one carries bytes
			if now, err = c.WriteAt(now, inline[i], 0, []byte("inline bytes")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The commit processes allocate as they work, and AllocsPerRun counts
	// every goroutine's allocations: measure an idle region.
	if now, err = e.region.Drain(now); err != nil {
		t.Fatal(err)
	}
	pin := func(name string, want float64, read func(at vclock.Time) (vclock.Time, error)) {
		t.Helper()
		got := testing.AllocsPerRun(200, func() {
			if now, err = read(now); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%s: %.0f allocs, want %.0f", name, got, want)
		}
	}

	pin("Stat hit", 0, func(at vclock.Time) (vclock.Time, error) {
		_, at, err := c.Stat(at, bare[3])
		return at, err
	})
	pin("readEntry", 0, func(at vclock.Time) (vclock.Time, error) {
		_, present, at, err := readEntry(c.cache, at, bare[3])
		if err == nil && !present {
			err = fmt.Errorf("readEntry missed %s", bare[3])
		}
		return at, err
	})
	statMulti := func(paths []string) func(at vclock.Time) (vclock.Time, error) {
		return func(at vclock.Time) (vclock.Time, error) {
			res, at, err := c.StatMulti(at, paths)
			for _, r := range res {
				if err == nil && r.Err != nil {
					err = r.Err
				}
			}
			return at, err
		}
	}
	pin("StatMulti of 16 hits", 1, statMulti(bare))
	pin("StatMulti of 16 hits, 8 with inline bytes", 1+8, statMulti(inline))
}
