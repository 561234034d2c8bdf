package core

import (
	"sync"
	"sync/atomic"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/mq"
	"pacon/internal/namespace"
	"pacon/internal/obs"
	"pacon/internal/vclock"
)

// node is one application node of a region (paper Fig 5, §III.D.1): its
// cache server, its commit queue, the table of what it has acked that the
// DFS does not have yet, and — the committer NewRegion starts on it — its
// commit process. Clients bound to the node take references in the table;
// the commit process gives them back (as does SimulateNodeFailure, for the
// ops that die with the node); everyone else only asks.
type node struct {
	name, addr string // addr is the cache server's, on the region's network
	cache      *memcache.Server
	queue      *mq.Queue[Op]
	tel        *obs.Node // nil: observability disabled
	inflight   inflight
	// state and snap are the commit process's, under the region's stall gate.
	state commitState
	snap  int64
}

// inflight holds, per path, the ops between their client's store and their
// terminal — queued, in a wave or parked alike, and which of them parked.
// Scoped barriers, threshold crossings, the auditor, the staleness
// watermarks and the at-risk and parked gauges all read it, it orders a
// path's stores and pushes, crossings, acks and a claim's waiters wait on
// it; a record lives exactly as long as its references.
type inflight struct {
	mu    sync.Mutex
	paths map[string]pending
	// walls holds, per path, when each of its ops entered, for the
	// staleness watermarks; it stays empty with observability off. It is
	// kept beside paths so that paths, which never shrinks, holds small
	// records.
	walls map[string][]int64
	// refs counts the references: the node's at-risk ops. Giving one back
	// that leaves refs below bound (the region's AtRiskBound; 0: none)
	// opens the bound, and opened counts those openings; freed is the
	// latest terminal's virtual time.
	refs, bound int
	opened      uint64
	freed       vclock.Time
	closed      bool
	waiting     int // the waits a park, a path's last reference or a claim's end wakes
	// cond (on mu) is the one wait: for a path's turn, its drain, the bound
	// or a claim's end. Its Broadcast returns at once when nobody waits.
	cond sync.Cond
	// parked counts the ops parked in the commit process's pending set. It
	// changes under mu and is read without it.
	parked atomic.Int32
	// unsettled lists the paths of ops that ended owing the cache a settle
	// the commit process has not sent yet (committer.settles). A removed
	// marker stays in the cache until its settle lands, so a scoped
	// barrier counts these paths as pending too: a rename must not move a
	// file onto a name whose stale marker would then hide it.
	unsettled []string
	// claims holds the seqs of the node's writes that may claim a crossing
	// (§III.D.2), from before the claim is stored to after the claimant's
	// final store: a writer that meets a claim waits for its seq to go.
	claims map[uint64]struct{}
}

type pending struct {
	refs, parked int32
	// next is the ticket the next take hands out, turn the ticket whose op
	// stores and pushes next: a path's ops store and leave the node in the
	// order of their takes, each holding its turn from take to push.
	// Tickets are only compared for equality, so wrapping is harmless.
	next, turn uint32
}

// take counts one more op on p, from before its store is visible — whoever
// finds the stored entry finds the op pending too — and returns in the op's
// turn on p, once every op that took p before it has pushed or given its
// turn back. The reference then travels with the op the client queues; push
// and giveBack pass the turn on. wall is 0 with observability off.
func (t *inflight) take(p string, wall int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.paths[p]
	ticket := rec.next
	rec.refs, rec.next = rec.refs+1, rec.next+1
	t.paths[p] = rec
	if wall != 0 {
		if t.walls == nil {
			t.walls = make(map[string][]int64)
		}
		t.walls[p] = append(t.walls[p], wall)
	}
	t.refs++
	for t.paths[p].turn != ticket {
		t.cond.Wait()
	}
}

// push hands op to q and passes its path's turn on. gate is 0 if the node
// then holds fewer than bound ops — the ack may return — and else the
// opening of the bound the ack waits for (below).
func (t *inflight) push(q *mq.Queue[Op], op *Op) (gate uint64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass(op.Path)
	if t.bound > 0 && t.refs >= t.bound {
		gate = t.opened + 1
	}
	return gate, q.Push(*op)
}

// giveBack is release for a request that queued nothing: it passes the
// turn on and gives the reference back.
func (t *inflight) giveBack(p string, wall int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass(p)
	t.unref(p, wall, 0, false)
}

// pass (mu held) hands p's turn to the next op that took p.
func (t *inflight) pass(p string) {
	rec := t.paths[p]
	rec.turn++
	t.paths[p] = rec
	t.cond.Broadcast()
}

// below parks an ack until the bound opens at gate and returns the latest
// terminal's virtual time, or true once the node holds a parked op, which
// the ack may wait behind. An opening lets every parked ack through, so a
// node's clients never take turns starving each other.
func (t *inflight) below(gate uint64) (vclock.Time, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parked, err := t.wait(func() bool { return t.opened >= gate }, func() bool { return t.parked.Load() > 0 })
	return t.freed, parked, err
}

// drained returns once no op on p is pending here, or true once one parks.
func (t *inflight) drained(p string) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wait(func() bool { return t.paths[p].refs == 0 }, func() bool { return t.paths[p].parked > 0 })
}

// wait (mu held) is a crossing's, an ack's or a claim's: it returns once
// done, or first, with true, once parked. A closed table answers ErrClosed.
func (t *inflight) wait(done, parked func() bool) (bool, error) {
	for !done() {
		switch {
		case t.closed:
			return false, fsapi.ErrClosed
		case parked():
			return true, nil
		}
		t.waiting++
		t.cond.Wait()
		t.waiting--
	}
	return false, nil
}

// park counts an op on p at its first park (pendingSet.add); release ends it.
func (t *inflight) park(p string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.paths[p]; ok {
		rec.parked++
		t.paths[p] = rec
		t.parked.Add(1)
		if t.waiting > 0 {
			t.cond.Broadcast()
		}
	}
}

// claim records seq, a write that may claim a crossing (on), or ends its
// record — seq 0: every one here, the node failed — and wakes the writers
// waiting for that in concluded.
func (t *inflight) claim(seq uint64, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case on:
		t.claims[seq] = struct{}{}
		return
	case seq == 0:
		clear(t.claims)
	default:
		delete(t.claims, seq)
	}
	if t.waiting > 0 {
		t.cond.Broadcast()
	}
}

// concluded returns once no write of seq is recorded here.
func (t *inflight) concluded(seq uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.wait(func() bool { _, ok := t.claims[seq]; return !ok }, func() bool { return false })
	return err
}

// close turns every crossing and ack waiting here away (Region.Close).
func (t *inflight) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.cond.Broadcast()
}

// release gives back the reference taken at wall, at at, the virtual time
// of the op's terminal, and its park if the op parked. The last reference
// takes the record; what was never taken is not given back.
func (t *inflight) release(p string, wall int64, at vclock.Time, parked bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.unref(p, wall, at, parked)
}

// unref is release with mu held.
func (t *inflight) unref(p string, wall int64, at vclock.Time, parked bool) {
	rec, ok := t.paths[p]
	if !ok {
		return
	}
	t.freed = vclock.Max(t.freed, at)
	if t.refs--; t.refs < t.bound {
		t.opened++
		t.cond.Broadcast()
	}
	if parked {
		rec.parked--
		t.parked.Add(-1)
	}
	rec.refs--
	if rec.refs == 0 {
		delete(t.paths, p)
		delete(t.walls, p)
		if t.waiting > 0 {
			t.cond.Broadcast()
		}
		return
	}
	t.paths[p] = rec
	ws := t.walls[p]
	for i, w := range ws {
		if w == wall {
			ws[i] = ws[len(ws)-1]
			t.walls[p] = ws[:len(ws)-1]
			break
		}
	}
}

// refsOn counts the ops pending on p itself.
func (t *inflight) refsOn(p string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.paths[p].refs)
}

// hasUnder reports whether any pending path, or any path still owed a
// settle, lies in scope's subtree.
func (t *inflight) hasUnder(scope string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for p := range t.paths {
		if namespace.IsUnder(p, scope) {
			return true
		}
	}
	for _, p := range t.unsettled {
		if namespace.IsUnder(p, scope) {
			return true
		}
	}
	return false
}

// owe notes that an op on p, about to reach its terminal, owes the cache
// a settle; the commit process calls it before the terminal.
func (t *inflight) owe(p string) {
	t.mu.Lock()
	t.unsettled = append(t.unsettled, p)
	t.mu.Unlock()
}

// settled forgets the owed settles: the commit process has sent them all.
func (t *inflight) settled() {
	t.mu.Lock()
	t.unsettled = t.unsettled[:0]
	t.mu.Unlock()
}

// oldest returns the earliest wall an op pending on p — on any path when p
// is "" — entered at, or 0 for none.
func (t *inflight) oldest(p string) (min int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fold := func(walls []int64) {
		for _, w := range walls {
			if min == 0 || w < min {
				min = w
			}
		}
	}
	if p != "" {
		fold(t.walls[p])
		return min
	}
	for _, walls := range t.walls {
		fold(walls)
	}
	return min
}

// atRisk counts the node's pending ops — acked, or about to be, and short
// of a terminal: what the DFS would never see if the node died now.
func (t *inflight) atRisk() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refs
}
