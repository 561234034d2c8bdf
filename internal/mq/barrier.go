package mq

import (
	"sync"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// Barrier coordinates barrier epochs across the commit processes of one
// consistent region (paper §III.E.2). The protocol per dependent
// operation (rmdir, readdir, rename) and per region-wide drain:
//
//  1. The initiating client calls Begin — barrier epochs are globally
//     ordered within a region, so Begin serializes concurrent dependent
//     operations (two interleaved epochs across nodes would deadlock the
//     commit processes).
//  2. The initiator pushes one barrier marker into every participating
//     node queue: every queue for a drain, only those holding an op
//     under the dependent operation's scope otherwise (SetExpect).
//  3. Each commit process, on reaching its marker, calls Arrive with its
//     virtual clock and then blocks in AwaitRelease.
//  4. The initiator blocks in AwaitArrivals; its return value is the
//     virtual time at which every earlier operation in those queues has
//     been applied to the DFS. It then performs the dependent operation
//     synchronously and calls Release with the completion time.
//  5. Commit processes resume from AwaitRelease, joining their clocks
//     with the release time, and move to the next epoch.
type Barrier struct {
	nodes int

	mu   sync.Mutex
	cond *sync.Cond

	active      bool
	closed      bool
	epoch       uint64
	expect      int // participating commit processes this epoch
	arrived     int
	arriveTime  vclock.Time
	released    bool
	releaseTime vclock.Time
	acks        int
}

// NewBarrier creates a coordinator for a region spanning `nodes` commit
// processes.
func NewBarrier(nodes int) *Barrier {
	if nodes < 1 {
		panic("mq: barrier needs at least one node")
	}
	b := &Barrier{nodes: nodes}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Epoch returns the current barrier epoch number.
func (b *Barrier) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// Begin opens a new barrier epoch, waiting for any active epoch to fully
// retire first. It returns the new epoch number.
func (b *Barrier) Begin() (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.active && !b.closed {
		b.cond.Wait()
	}
	if b.closed {
		return 0, fsapi.ErrClosed
	}
	b.active = true
	b.epoch++
	b.expect = b.nodes
	b.arrived = 0
	b.arriveTime = 0
	b.released = false
	b.releaseTime = 0
	b.acks = 0
	return b.epoch, nil
}

// SetExpect narrows the epoch to n participating commit processes
// (path-scoped barriers: queues with no pending ops under the scope get
// no marker and neither arrive nor ack). The initiator must call it
// after Begin and before pushing markers — it owns the epoch exclusively
// in that window, so the count cannot race with arrivals. n == 0 is
// legal: AwaitArrivals returns immediately and Release retires the
// epoch itself.
func (b *Barrier) SetExpect(epoch uint64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch != b.epoch || !b.active {
		panic("mq: barrier SetExpect for wrong epoch")
	}
	if n < 0 || n > b.nodes {
		panic("mq: barrier SetExpect out of range")
	}
	b.expect = n
	b.cond.Broadcast()
}

// Arrive records that one commit process reached the epoch's marker at
// virtual time `at`.
func (b *Barrier) Arrive(epoch uint64, at vclock.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch != b.epoch || !b.active {
		// A stale arrival is a protocol bug; fail loudly.
		panic("mq: barrier arrival for wrong epoch")
	}
	b.arrived++
	b.arriveTime = vclock.Max(b.arriveTime, at)
	b.cond.Broadcast()
}

// AwaitArrivals blocks the initiator until every commit process arrived,
// returning the latest arrival time — the virtual instant the region's
// earlier operations are all on the DFS.
func (b *Barrier) AwaitArrivals(epoch uint64) (vclock.Time, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.epoch == epoch && b.active && b.arrived < b.expect && !b.closed {
		b.cond.Wait()
	}
	if b.closed {
		return 0, fsapi.ErrClosed
	}
	return b.arriveTime, nil
}

// Release publishes the dependent operation's completion time and lets
// the commit processes resume.
func (b *Barrier) Release(epoch uint64, at vclock.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch != b.epoch || !b.active {
		panic("mq: barrier release for wrong epoch")
	}
	b.released = true
	b.releaseTime = at
	if b.acks >= b.expect {
		// Zero-participant epoch: no commit process will ack, so the
		// release itself retires the epoch.
		b.active = false
	}
	b.cond.Broadcast()
}

// AwaitRelease blocks a commit process until the epoch's dependent
// operation committed; the returned time joins the process's clock. The
// epoch retires once every process acknowledged.
func (b *Barrier) AwaitRelease(epoch uint64) (vclock.Time, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !(b.epoch == epoch && b.released) && !b.closed {
		b.cond.Wait()
	}
	if b.closed {
		return 0, fsapi.ErrClosed
	}
	t := b.releaseTime
	b.acks++
	if b.acks == b.expect {
		b.active = false
		b.cond.Broadcast()
	}
	return t, nil
}

// Close unblocks every waiter with ErrClosed (region shutdown or
// simulated node failure).
func (b *Barrier) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}
