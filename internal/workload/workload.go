// Package workload implements the paper's benchmark drivers: an
// mdtest-like metadata workload (mkdir / create / random-stat phases
// over configurable trees, §IV.A–E) and a MADbench2-like HPC application
// workload (per-process component files, large sequential I/O and
// compute phases, §IV.F). Both drive any metadata service through the
// Client interface, so BeeGFS, IndexFS and Pacon run the identical
// workload code.
package workload

import (
	"fmt"
	"sync"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// Client is the view of a file system a metadata workload needs.
// dfs.Client, indexfs.Client and core.Client all satisfy it.
type Client interface {
	Mkdir(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error)
	Create(at vclock.Time, p string, mode fsapi.Mode) (vclock.Time, error)
	Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error)
	Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error)
	Remove(at vclock.Time, p string) (vclock.Time, error)
	Pace(pacer *vclock.Pacer, id int)
}

// FileClient adds the data plane, for the MADbench2 workload.
type FileClient interface {
	Client
	WriteAt(at vclock.Time, p string, off int64, data []byte) (vclock.Time, error)
	ReadAt(at vclock.Time, p string, off int64, n int) ([]byte, vclock.Time, error)
}

// Result summarizes one phase.
type Result struct {
	// Ops is the total operation count across clients.
	Ops int64
	// Elapsed is the phase's virtual makespan (slowest client).
	Elapsed vclock.Duration
}

// OPS is throughput in operations per second of virtual time.
func (r Result) OPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Runner executes phases over a set of simulated clients. Phases are
// separated by barriers (mdtest's MPI_Barrier): every client starts
// phase k at the virtual time the slowest client finished phase k-1.
type Runner struct {
	clients []Client
	times   []vclock.Time
}

// NewRunner wraps pre-built clients.
func NewRunner(clients []Client) *Runner {
	return &Runner{clients: clients, times: make([]vclock.Time, len(clients))}
}

// Now returns the current barrier time (max across clients).
func (r *Runner) Now() vclock.Time {
	var m vclock.Time
	for _, t := range r.times {
		m = vclock.Max(m, t)
	}
	return m
}

// PhaseFunc runs one client's share of a phase from `start`, returning
// its finish time and operation count.
type PhaseFunc func(idx int, cl Client, start vclock.Time) (vclock.Time, int64, error)

// RunPhase executes fn concurrently on every client between barriers. A
// fresh Pacer bounds virtual-clock skew for the phase, so a phase must
// not mix region barriers (Readdir, Rmdir) with clients that keep
// operating: a client parked in a barrier does not advance its clock,
// and the barrier holder's own RPCs block in the pacer waiting for it.
func (r *Runner) RunPhase(fn PhaseFunc) (Result, error) {
	start := r.Now()
	pacer := vclock.NewPacer(len(r.clients), vclock.DefaultPacerWindow)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int64
		first error
	)
	for i := range r.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer pacer.Done(i)
			cl := r.clients[i]
			cl.Pace(pacer, i)
			end, ops, err := fn(i, cl, start)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			if end > r.times[i] {
				r.times[i] = end
			} else {
				r.times[i] = start
			}
			total += ops
		}(i)
	}
	wg.Wait()
	if first != nil {
		return Result{}, first
	}
	return Result{Ops: total, Elapsed: r.Now().Sub(start)}, nil
}

// uniqueName builds mdtest-style item names: every client works in the
// same parent directory with client-unique names.
func uniqueName(kind string, client, item int) string {
	return fmt.Sprintf("%s.%d.%d", kind, client, item)
}
