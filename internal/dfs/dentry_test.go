package dfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// TestTraversalPermissionCheckedAtUse: a cached directory says that the
// directory exists, not that this client may pass through it. Stat of a
// directory needs no permission on the directory itself, so the entry it
// leaves behind was never checked; resolving a path under it must check
// it then, and a caching client must answer exactly as an uncached one —
// and as itself one call earlier.
func TestTraversalPermissionCheckedAtUse(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  int
		ttl  vclock.Duration
	}{{"uncached", 0, 0}, {"cached", 1024, time.Hour}} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t)
			root := c.NewClient("node0", rootCred, 0, 0)
			if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
				t.Fatal(err)
			}
			if _, err := root.Mkdir(0, "/w/d", 0o700); err != nil {
				t.Fatal(err)
			}
			if _, err := root.Create(0, "/w/d/f", 0o644); err != nil {
				t.Fatal(err)
			}
			app := c.NewClient("node0", appCred, tc.cap, tc.ttl)
			if _, _, err := app.Stat(0, "/w/d/f"); !errors.Is(err, fsapi.ErrPermission) {
				t.Fatalf("stat through a 0700 root directory = %v, want ErrPermission", err)
			}
			if st, _, err := app.Stat(0, "/w/d"); err != nil || !st.IsDir() {
				t.Fatalf("stat of the directory itself = %+v, %v", st, err)
			}
			if st, _, err := app.Stat(0, "/w/d/f"); !errors.Is(err, fsapi.ErrPermission) {
				t.Fatalf("stat through the directory after it was statted = %+v, %v; want ErrPermission", st, err)
			}
			if _, err := app.Create(0, "/w/d/g", 0o644); !errors.Is(err, fsapi.ErrPermission) {
				t.Fatalf("create through the directory = %v, want ErrPermission", err)
			}
		})
	}
}

// TestDentryCacheHoldsDirectoriesOnly: on a caching client the answer for
// the path asked about always comes from the MDS — another client's
// update is seen by the next Stat, which costs one lookup every time —
// while ancestors keep costing nothing, and whatever mix of calls ran,
// every entry of the cache is a directory.
func TestDentryCacheHoldsDirectoriesOnly(t *testing.T) {
	c := testCluster(t)
	root := c.NewClient("node0", rootCred, 0, 0)
	if _, err := root.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 1024, time.Hour)
	other := c.NewClient("node1", appCred, 0, 0)
	at, err := cl.Mkdir(0, "/w/d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = cl.Create(at, "/w/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	st, at, err := cl.Stat(at, "/w/d/f")
	if err != nil || st.Size != 0 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	// "/", "/w" and "/w/d" are resolved by now: from here a Stat of the
	// file is one lookup, for the file, each time.
	for size := int64(1); size <= 3; size++ {
		st.Size = size
		if _, err := other.SetStat(at, "/w/d/f", st); err != nil {
			t.Fatal(err)
		}
		before := lookups(c)
		got, done, err := cl.Stat(at, "/w/d/f")
		at = done
		if err != nil || got.Size != size {
			t.Fatalf("stat after another client's setstat to %d = %+v, %v", size, got, err)
		}
		if n := lookups(c) - before; n != 1 {
			t.Fatalf("stat of a file under cached ancestors cost %d lookups, want 1", n)
		}
	}

	paths := []string{"/w", "/w/d", "/w/d/f", "/w/d/ghost"}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/w/d/b%d", i)
		if at, err = cl.Create(at, p, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	before := lookups(c)
	res, at, err := cl.StatBatch(at, paths)
	if err != nil || res[1].Err != nil || res[2].Err != nil || !errors.Is(res[3].Err, fsapi.ErrNotExist) {
		t.Fatalf("stat batch = %+v, %v", res, err)
	}
	if n := lookups(c) - before; n != int64(len(paths)) {
		t.Fatalf("stat batch of %d paths under cached ancestors cost %d lookups, want one per path", len(paths), n)
	}
	if _, _, err = cl.Stat(at, "/w/d"); err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for p, d := range cl.dentries {
		if !d.stat.IsDir() {
			t.Errorf("dentry cache holds %s, a %v", p, d.stat.Type)
		}
	}
	for _, dir := range []string{"/", "/w", "/w/d"} {
		if _, ok := cl.dentries[dir]; !ok {
			t.Errorf("directory %s is not cached", dir)
		}
	}
}
