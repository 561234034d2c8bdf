package workload

import (
	"fmt"
	"math/rand"

	"pacon/internal/namespace"
	"pacon/internal/vclock"
)

// Mdtest reproduces the paper's mdtest runs: N concurrent clients
// create directories and empty files under the same parent directory,
// then randomly stat them (§IV.A), optionally over deeper tree shapes
// for the path-traversal experiments (§II.C, §IV.C).
type Mdtest struct {
	// Dir is the working directory (must exist).
	Dir string
	// ItemsPerClient is each client's item count per phase.
	ItemsPerClient int
	// Seed feeds the random-stat order.
	Seed int64

	runner *Runner
}

// NewMdtest builds a driver over the clients.
func NewMdtest(clients []Client, dir string, itemsPerClient int, seed int64) *Mdtest {
	return &Mdtest{
		Dir:            namespace.Clean(dir),
		ItemsPerClient: itemsPerClient,
		Seed:           seed,
		runner:         NewRunner(clients),
	}
}

// MkdirPhase: every client creates ItemsPerClient directories in Dir.
func (m *Mdtest) MkdirPhase() (Result, error) {
	return m.runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		var err error
		for j := 0; j < m.ItemsPerClient; j++ {
			now, err = cl.Mkdir(now, namespace.Join(m.Dir, uniqueName("d", idx, j)), 0o755)
			if err != nil {
				return now, 0, fmt.Errorf("mkdir client %d item %d: %w", idx, j, err)
			}
		}
		return now, int64(m.ItemsPerClient), nil
	})
}

// CreatePhase: every client creates ItemsPerClient empty files in Dir.
func (m *Mdtest) CreatePhase() (Result, error) {
	return m.runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		var err error
		for j := 0; j < m.ItemsPerClient; j++ {
			now, err = cl.Create(now, namespace.Join(m.Dir, uniqueName("f", idx, j)), 0o644)
			if err != nil {
				return now, 0, fmt.Errorf("create client %d item %d: %w", idx, j, err)
			}
		}
		return now, int64(m.ItemsPerClient), nil
	})
}

// StatPhase: every client randomly stats ItemsPerClient of the files
// created by CreatePhase (across all clients — random access defeats
// per-client locality, §IV.A).
func (m *Mdtest) StatPhase() (Result, error) {
	n := len(m.runner.clients)
	return m.runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		rnd := rand.New(rand.NewSource(m.Seed + int64(idx)))
		var err error
		for j := 0; j < m.ItemsPerClient; j++ {
			owner := rnd.Intn(n)
			item := rnd.Intn(m.ItemsPerClient)
			_, now, err = cl.Stat(now, namespace.Join(m.Dir, uniqueName("f", owner, item)))
			if err != nil {
				return now, 0, fmt.Errorf("stat client %d item %d: %w", idx, j, err)
			}
		}
		return now, int64(m.ItemsPerClient), nil
	})
}

// RemovePhase: every client removes its files.
func (m *Mdtest) RemovePhase() (Result, error) {
	return m.runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		var err error
		for j := 0; j < m.ItemsPerClient; j++ {
			now, err = cl.Remove(now, namespace.Join(m.Dir, uniqueName("f", idx, j)))
			if err != nil {
				return now, 0, fmt.Errorf("remove client %d item %d: %w", idx, j, err)
			}
		}
		return now, int64(m.ItemsPerClient), nil
	})
}

// BuildTree creates an mdtest -z/-b namespace, a directory tree of the
// given fanout and depth under Dir, through client 0 (setup is not
// measured) and returns its leaves: the deepest directories, the
// random-stat targets of the path-traversal experiments.
func (m *Mdtest) BuildTree(fanout, depth int) ([]string, error) {
	var leaves []string
	_, err := m.runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		if idx != 0 {
			return now, 0, nil
		}
		var build func(dir string, level int, now vclock.Time) (vclock.Time, error)
		build = func(dir string, level int, now vclock.Time) (vclock.Time, error) {
			if level == depth {
				leaves = append(leaves, dir)
				return now, nil
			}
			for i := 0; i < fanout; i++ {
				child := namespace.Join(dir, fmt.Sprintf("t%d", i))
				var err error
				now, err = cl.Mkdir(now, child, 0o755)
				if err != nil {
					return now, err
				}
				if now, err = build(child, level+1, now); err != nil {
					return now, err
				}
			}
			return now, nil
		}
		now, err := build(m.Dir, 0, now)
		return now, 0, err
	})
	if err != nil {
		return nil, err
	}
	return leaves, nil
}

// StatLeavesPhase randomly stats a tree's leaf directories — the
// paper's path-traversal benchmark (Figs 2, 9): every stat resolves a
// depth-long path.
func (m *Mdtest) StatLeavesPhase(leaves []string) (Result, error) {
	return m.runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		rnd := rand.New(rand.NewSource(m.Seed + 7919*int64(idx+1)))
		var err error
		for j := 0; j < m.ItemsPerClient; j++ {
			leaf := leaves[rnd.Intn(len(leaves))]
			_, now, err = cl.Stat(now, leaf)
			if err != nil {
				return now, 0, fmt.Errorf("stat leaf: %w", err)
			}
		}
		return now, int64(m.ItemsPerClient), nil
	})
}
