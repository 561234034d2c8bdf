package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// TestIndependentCommitConvergesToModel is the empirical counterpart of
// the paper's §III.E argument: for non-dependent operations, any commit
// order satisfying the namespace conventions yields the same final
// namespace. Multiple clients on multiple nodes issue a random sequence
// of mkdir/create/rm; after a drain, the DFS namespace must exactly
// match a sequential model of the accepted operations.
func TestIndependentCommitConvergesToModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newEnv(t, 3, nil)
			rnd := rand.New(rand.NewSource(seed))

			// Sequential issue order across random clients: the model
			// applies the same op stream in issue order, which is the
			// region's linearization (each op is applied to the shared
			// cache before the next is issued).
			clients := make([]*Client, 6)
			times := make([]vclock.Time, len(clients))
			for i := range clients {
				clients[i] = e.client(t, e.nodes[i%len(e.nodes)])
			}

			model := map[string]fsapi.FileType{"/w": fsapi.TypeDir}
			dirs := []string{"/w"}
			files := []string{}

			// Per-path client affinity: every op on a path goes through
			// one client, so its commit-queue order matches issue order.
			// This is the design's contract (see the package comment on
			// commitLoop / DESIGN.md): cross-client create/rm races on
			// the SAME path commit in unspecified cross-queue order, as
			// in the paper, whose §III.E argument presumes per-path
			// temporal order (per-node FIFO queues provide it when a
			// path has one writer — the case in every HPC workload the
			// paper evaluates).
			clientFor := func(p string) int {
				h := 0
				for i := 0; i < len(p); i++ {
					h = h*131 + int(p[i])
				}
				if h < 0 {
					h = -h
				}
				return h % len(clients)
			}

			for op := 0; op < 400; op++ {
				kind := rnd.Intn(10)
				var p string
				switch {
				case kind < 3: // mkdir
					p = fmt.Sprintf("%s/d%d", dirs[rnd.Intn(len(dirs))], rnd.Intn(50))
				case kind < 8: // create
					p = fmt.Sprintf("%s/f%d", dirs[rnd.Intn(len(dirs))], rnd.Intn(80))
				default: // rm a random known file (may already be gone)
					if len(files) == 0 {
						continue
					}
					p = files[rnd.Intn(len(files))]
				}
				ci := clientFor(p)
				cl := clients[ci]
				now := times[ci]
				var err error
				switch {
				case kind < 3:
					now, err = cl.Mkdir(now, p, 0o755)
					if err == nil {
						if _, dup := model[p]; dup {
							t.Fatalf("mkdir %s accepted but model has it", p)
						}
						model[p] = fsapi.TypeDir
						dirs = append(dirs, p)
					} else if !errors.Is(err, fsapi.ErrExist) {
						t.Fatalf("mkdir %s: %v", p, err)
					}
				case kind < 8:
					now, err = cl.Create(now, p, 0o644)
					if err == nil {
						if _, dup := model[p]; dup {
							t.Fatalf("create %s accepted but model has it", p)
						}
						model[p] = fsapi.TypeFile
						files = append(files, p)
					} else if !errors.Is(err, fsapi.ErrExist) {
						t.Fatalf("create %s: %v", p, err)
					}
				default:
					now, err = cl.Remove(now, p)
					if err == nil {
						if _, ok := model[p]; !ok {
							t.Fatalf("rm %s accepted but model lacks it", p)
						}
						delete(model, p)
					} else if !errors.Is(err, fsapi.ErrNotExist) {
						t.Fatalf("rm %s: %v", p, err)
					}
				}
				times[ci] = now
			}

			// Drain: all backup copies applied.
			var maxT vclock.Time
			for _, ti := range times {
				maxT = vclock.Max(maxT, ti)
			}
			if _, err := e.region.Drain(maxT); err != nil {
				t.Fatal(err)
			}
			if st := e.region.Stats(); st.Dropped != 0 {
				t.Fatalf("ops dropped: %+v", st)
			}

			// The DFS namespace under /w must equal the model exactly.
			got := map[string]fsapi.FileType{}
			err := e.dfs.MDS.Tree().Walk("/w", func(p string, _ uint64, st fsapi.Stat) error {
				got[p] = st.Type
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for p, typ := range model {
				g, ok := got[p]
				if !ok {
					t.Errorf("model has %s (%v), DFS lacks it", p, typ)
				} else if g != typ {
					t.Errorf("%s: model %v, DFS %v", p, typ, g)
				}
			}
			for p := range got {
				if _, ok := model[p]; !ok {
					t.Errorf("DFS has %s, model lacks it", p)
				}
			}
		})
	}
}

// TestConcurrentMixedWorkloadNoDrops hammers a region from truly
// concurrent goroutines (racing creates, removes, stats, readdirs and an
// rmdir) and checks the commit module never drops work and the region
// survives with a consistent DFS image.
func TestConcurrentMixedWorkloadNoDrops(t *testing.T) {
	e := newEnv(t, 4, nil)
	setup := e.client(t, "node0")
	at, err := setup.Mkdir(0, "/w/mix", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	_ = at

	const goros = 12
	var wg sync.WaitGroup
	for g := 0; g < goros; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := e.client(t, e.nodes[g%len(e.nodes)])
			now := vclock.Time(0)
			var err error
			for i := 0; i < 40; i++ {
				p := fmt.Sprintf("/w/mix/g%d-%d", g, i)
				if now, err = cl.Create(now, p, 0o644); err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if i%3 == 0 {
					if now, err = cl.Remove(now, p); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				}
				if i%7 == 0 {
					if _, _, err = cl.Stat(now, "/w/mix"); err != nil {
						t.Errorf("stat: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// A barrier op sees the final state.
	reader := e.client(t, "node1")
	ents, _, err := reader.Readdir(vclock.Time(1<<45), "/w/mix")
	if err != nil {
		t.Fatal(err)
	}
	// Each goroutine created 40, removed ceil(40/3)=14.
	want := goros * (40 - 14)
	if len(ents) != want {
		t.Fatalf("final entries = %d, want %d", len(ents), want)
	}
	if st := e.region.Stats(); st.Dropped != 0 {
		t.Fatalf("drops under concurrency: %+v", st)
	}
}

// TestRmdirRacingCreates: creations race a recursive rmdir of their
// parent. Whatever interleaving occurs, the end state must be valid:
// the directory gone from DFS and cache, no orphaned children anywhere,
// and every racing create either succeeded (before the removal) or
// failed with ErrNotExist (after it).
func TestRmdirRacingCreates(t *testing.T) {
	for round := 0; round < 5; round++ {
		e := newEnv(t, 3, nil)
		setup := e.client(t, "node0")
		if _, err := setup.Mkdir(0, "/w/doomed", 0o755); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cl := e.client(t, e.nodes[g%len(e.nodes)])
				<-start
				now := vclock.Time(0)
				for i := 0; i < 30; i++ {
					var err error
					now, err = cl.Create(now, fmt.Sprintf("/w/doomed/g%d-%d", g, i), 0o644)
					if err != nil && !errors.Is(err, fsapi.ErrNotExist) {
						t.Errorf("create: %v", err)
						return
					}
				}
			}(g)
		}
		remover := e.client(t, "node1")
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := remover.Rmdir(vclock.Time(1000), "/w/doomed"); err != nil &&
				!errors.Is(err, fsapi.ErrNotExist) {
				t.Errorf("rmdir: %v", err)
			}
		}()
		close(start)
		wg.Wait()

		// Quiesce and verify global invariants.
		at, err := e.region.Drain(vclock.Time(1 << 45))
		if err != nil {
			t.Fatal(err)
		}
		if e.dfs.MDS.Tree().Exists("/w/doomed") {
			// Creates that raced after the rmdir may have re-verified the
			// parent via a stale memo — but the parent is gone, so they
			// must not have re-created it.
			t.Fatal("removed directory still on DFS")
		}
		// No orphans: every DFS path under /w has a directory parent.
		err = e.dfs.MDS.Tree().Walk("/w", func(p string, _ uint64, st fsapi.Stat) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		// Cache holds no entries under the removed dir.
		if _, _, err := remover.Stat(at, "/w/doomed/g0-0"); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("stale cache entry after rmdir: %v", err)
		}
	}
}
