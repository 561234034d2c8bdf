package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"pacon/internal/fsapi"
)

// The explorer enumerates every interleaving of two clients, the commit
// process and eviction on ONE path, bounded to three ops per client, and
// checks entry.go's invariants at every step. The clients, the queue, the
// settles and eviction are run by the production table — next and
// commitOutcome —
// against models of the two stores that are small enough to read: one
// cache key (xCache) and one DFS file (xDFS). What is modelled and what
// is not:
//
//   - every cache RPC of the driver is its own step: a mutate is one, the
//     owner's row (entryRow's fetched bytes and next) applied to the key at
//     once, and the push that follows it another, so the store→push window
//     and waits on a claim occur, and nothing comes between a row's read
//     and its store;
//   - both clients share one node, hence one FIFO queue, which receives
//     ops in store order: a row that may queue an op is not sent while the
//     other client's store waits for its push (the path's turn, which
//     inflight.take waits for); the commit process takes one op at a time —
//     no coalescing, no parking: an op that must be resubmitted stays at
//     the head, and is dropped as by the retry budget once nothing else
//     can move. Two clients' pushes overtaking each other, and two
//     nodes' queues committing one path's writes out of seq order, are
//     hazards of the queues, which the chaos schedules explore, not of
//     the entry's table;
//   - a miss-load's DFS stat and cache add are one step: splitting them
//     is the stale-load family, which the owner's load token guards, not
//     the entry's table;
//   - no DFS call fails except by what the file's state implies
//     (ErrExist, ErrNotExist) — those are the commit events.
const xThreshold = 4

// xTable is the table under test: production's, or the self-test's
// override of it.
type xTable struct {
	next func(cur cacheVal, present bool, ev *event) outcome
	// claimFirst: a crossing write claims the entry and drains the path
	// before the DFS is touched. False is the parent commit's order.
	claimFirst bool
}

type xCache struct {
	val     cacheVal
	present bool
	ver     uint64
}

// xDFS is the 30-line DFS: one file's existence, size and bytes.
type xDFS struct {
	exists bool
	data   string // len(data) is the file's size
}

func (d *xDFS) write(off int, b []byte) {
	buf := []byte(d.data)
	if need := off + len(b); need > len(buf) {
		buf = append(buf, make([]byte, need-len(buf))...)
	}
	copy(buf[off:], b)
	d.data = string(buf)
}

func (d *xDFS) setSize(n int64) {
	if int(n) < len(d.data) {
		d.data = d.data[:n]
	} else {
		d.write(int(n), nil)
	}
}

func (d *xDFS) stat() fsapi.Stat {
	return fsapi.Stat{Type: fsapi.TypeFile, Size: int64(len(d.data))}
}

type xPhase uint8

const (
	phStart       xPhase = iota // take the next op of the program
	phMutate                    // one mutate: the owner's row, store and all
	phRead                      // a read's cache get
	phFetch                     // DFS half of a vFetch
	phPush                      // the stored op reaches the queue
	phDrain                     // wait for the path to drain (claim held)
	phMaterialize               // DFS half of a crossing
	phReadDFS                   // DFS half of a read
)

type xClient struct {
	prog  string // one letter per op: c create, s small write, x crossing write, r rm, g read
	pc    int
	phase xPhase
	ev    event
	out   outcome // the last row's: for a claim, the claimed entry
	acked int     // the newest of its own writes to be acked: a place in the history
	wrote int     // a write in flight: its place in the history once visible
}

type xState struct {
	cache   xCache
	dfs     xDFS
	queue   []Op
	cl      [2]xClient
	seq     uint64
	evicts  int
	history []string // every content the file has had, oldest first; xGone for none
}

const xGone = "\x00gone"

// key is the state's identity for the visited set: every field a step
// reads, appended by hand (fmt's %v is most of the search's time).
func (s *xState) key() string {
	b := make([]byte, 0, 256)
	num := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
	}
	str := func(v string) {
		num(uint64(len(v)))
		b = append(b, v...)
	}
	flag := func(vs ...bool) {
		var f uint64
		for i, v := range vs {
			if v {
				f |= 1 << i
			}
		}
		num(f)
	}
	val := func(v cacheVal) {
		flag(v.dirty, v.removed, v.large)
		num(v.seq, uint64(v.stat.Size))
		str(string(v.stat.Inline))
	}
	val(s.cache.val)
	flag(s.cache.present, s.dfs.exists)
	num(s.cache.ver, s.seq, uint64(s.evicts), uint64(len(s.queue)))
	str(s.dfs.data)
	for _, op := range s.queue {
		flag(op.AfterRm)
		num(uint64(op.Kind), op.Seq, uint64(op.Stat.Size))
		str(string(op.Stat.Inline))
	}
	for i := range s.cl {
		c := &s.cl[i]
		num(uint64(c.pc), uint64(c.phase), uint64(c.acked), uint64(c.wrote),
			uint64(c.ev.kind), c.ev.seq, uint64(c.ev.size), uint64(c.ev.stat.Size), c.ev.fetchedAt, uint64(c.out.kind))
		str(string(c.ev.fetched))
		flag(c.ev.hasStat, c.out.enqueue, c.out.afterRm)
		val(c.out.val)
	}
	for _, h := range s.history {
		str(h)
	}
	return string(b)
}

func (s xState) clone() xState {
	s.queue = append([]Op(nil), s.queue...)
	s.history = append([]string(nil), s.history...)
	return s
}

func (s *xState) truth() string { return s.history[len(s.history)-1] }

// see records a content becoming visible to readers.
func (s *xState) see(c *xClient, content string) {
	s.history = append(s.history, content)
	c.wrote = len(s.history) - 1
}

// xViolation is an invariant broken, with the steps that led there.
type xViolation struct {
	msg   string
	trace []string
}

type explorer struct {
	tbl    xTable
	seen   map[string]bool
	states int
	ends   int
	// misread is a read's failed check, reported with the trace by the
	// step loop.
	misread string
	bad     *xViolation
}

// explore runs every interleaving from s0 and stops at the first
// violation.
func (x *explorer) explore(s0 xState, trace []string) {
	if x.bad != nil {
		return
	}
	k := s0.key()
	if x.seen[k] {
		return
	}
	x.seen[k] = true
	x.states++
	if msg := x.check(&s0); msg != "" {
		x.bad = &xViolation{msg: msg, trace: append([]string(nil), trace...)}
		return
	}
	moved := false
	try := func(label string, step func(s *xState) bool) {
		s := s0.clone()
		if step(&s) {
			moved = true
			if x.misread != "" {
				x.bad = &xViolation{msg: x.misread, trace: append(append([]string(nil), trace...), label)}
			}
			x.explore(s, append(trace, label))
		}
	}
	for i := range s0.cl {
		i := i
		if s0.cl[i].pc < len(s0.cl[i].prog) || s0.cl[i].phase != phStart {
			try(fmt.Sprintf("c%d:%s", i, x.label(&s0.cl[i])), func(s *xState) bool { return x.stepClient(s, i) })
		}
	}
	if len(s0.queue) > 0 {
		try("commit:"+s0.queue[0].Kind.String(), x.stepCommit)
	}
	if s0.evicts > 0 {
		try("evict", func(s *xState) bool {
			s.evicts--
			x.runSettle(&s.cache, evEvict, 0)
			return true
		})
	}
	if !moved && len(s0.queue) > 0 {
		try("budget-drop:"+s0.queue[0].Kind.String(), func(s *xState) bool {
			x.settle(s, s.queue[0], rowDrop(s.queue[0].Kind, dropReasonRetryBudget))
			return true
		})
	}
	if !moved {
		x.ends++
		if msg := x.checkEnd(&s0); msg != "" {
			x.bad = &xViolation{msg: msg, trace: append([]string(nil), trace...)}
		}
	}
}

func (x *explorer) label(c *xClient) string {
	op := "-"
	if c.pc < len(c.prog) {
		op = c.prog[c.pc : c.pc+1]
	}
	return fmt.Sprintf("%s/%d", op, c.phase)
}

// pendingOn mirrors the path trackers: an op queued, or stored and on its
// way to the queue.
func (s *xState) pendingOn() bool {
	return len(s.queue) > 0 || s.cl[0].phase == phPush || s.cl[1].phase == phPush
}

// done ends the client's current op; acked says a write of its is now
// acknowledged.
func (s *xState) done(c *xClient, acked bool) {
	if acked && c.wrote > c.acked {
		c.acked = c.wrote
	}
	c.pc++
	c.phase, c.wrote = phStart, 0
}

// mutate is one Client.mutate round trip in one step: the owner's row —
// entryRow's fetched bytes, then the table — applied to the key, the store
// it answers with, and what the client does with the answer.
func (x *explorer) mutate(s *xState, c, other *xClient) bool {
	if c.ev.kind != evGrown && c.ev.kind != evSizeBump && other.phase == phPush {
		// The node's push turn: the other client holds it from before its
		// store to its push, and a row that may queue an op waits for it
		// before its request leaves.
		return false
	}
	if c.ev.kind == evCreate && !s.cache.present && s.dfs.exists {
		// The cache lost the entry of a file the DFS holds (eviction), and
		// would accept the create. The model answers EEXIST, as a create
		// that asked the DFS would: the product's answer — accept, then
		// adopt, truncating by fiat — is row (3)'s, and
		// TestRecreateAfterEvictionAdopts's subject; writes racing it are
		// outside these invariants.
		s.done(c, false)
		return true
	}
	in := s.cache.val
	if c.ev.fetchedAt != 0 && c.ev.fetchedAt == s.cache.ver {
		in.stat.Inline = c.ev.fetched // entryRow's: bytes count for their version
	}
	c.out = x.tbl.next(in, s.cache.present, &c.ev)
	switch c.out.verdict {
	case vFail:
		s.done(c, false)
	case vWait:
		// The next step asks again.
	case vFetch:
		c.ev.fetchedAt, c.phase = 0, phFetch
		if s.cache.present {
			c.ev.fetchedAt = s.cache.ver // the entry's bytes, for this version
		}
	case vKeep:
		if c.ev.kind != evWrite || !s.dfs.exists {
			// A concluded claim, a size bump with nothing to do, or a large
			// file the DFS no longer has (ErrNotExist).
			s.done(c, c.ev.kind != evWrite)
			break
		}
		// A large file: write through, in the step of the row that found it
		// large. Between the two nothing protects the writer — the DFS data
		// path has no CAS — so what races them is not the table's. The size
		// bump is the next step's mutate.
		s.dfs.write(int(c.ev.off), c.ev.data)
		s.see(c, s.dfs.data)
		c.ev.kind, c.ev.size = evSizeBump, c.ev.off+int64(len(c.ev.data))
	default: // vStore
		claim := c.ev.kind == evWrite && !c.out.enqueue
		if claim && !x.tbl.claimFirst {
			c.phase = phMaterialize // the parent's order: no claim, no drain
			break
		}
		s.cache.ver++
		s.cache.val, s.cache.present = c.out.val, true
		switch {
		case c.ev.kind == evCreate:
			s.see(c, "")
		case c.ev.kind == evRemove:
			s.see(c, xGone)
		case c.ev.kind == evWrite && c.out.enqueue:
			s.see(c, string(c.out.val.stat.Inline))
		}
		switch {
		case c.out.enqueue:
			c.phase = phPush
		case claim:
			c.phase = phDrain
		default:
			s.done(c, true)
		}
	}
	return true
}

// load is a miss-load on the one key — the owner's read-through of a get
// or a get_multi — the DFS stat and the add in one step: the table's
// evLoad row, added to the absent key.
func (x *explorer) load(s *xState) {
	ev := event{kind: evLoad, stat: s.dfs.stat(), threshold: xThreshold}
	s.cache.ver++
	s.cache.val, s.cache.present = x.tbl.next(cacheVal{}, false, &ev).val, true
}

// stepClient advances client i by one RPC. It mirrors Client.mutate and
// the callers' handling of its answers, one shared-state access per step;
// the decisions are the table's.
func (x *explorer) stepClient(s *xState, i int) bool {
	c := &s.cl[i]
	switch c.phase {
	case phStart:
		s.seq++
		c.ev = event{op: "x", path: "/p", seq: s.seq, threshold: xThreshold}
		c.phase = phMutate
		switch c.prog[c.pc] {
		case 'c':
			c.ev.kind, c.ev.stat = evCreate, fsapi.Stat{Type: fsapi.TypeFile}
		case 's':
			c.ev.kind, c.ev.data = evWrite, []byte{'a' + byte(i), '0' + byte(c.pc)}
		case 'x':
			c.ev.kind, c.ev.off, c.ev.data = evWrite, 1, []byte{'A' + byte(i), '0' + byte(c.pc), 'x', 'x', 'x', 'x'}
		case 'r':
			c.ev.kind = evRemove
		case 'g':
			c.phase = phRead
		}

	case phMutate:
		return x.mutate(s, c, &s.cl[1-i])

	case phRead:
		switch v := s.cache.val; {
		case s.cache.present && v.removed:
			return x.observe(s, c, xGone)
		case s.cache.present && int64(len(v.stat.Inline)) >= v.stat.Size:
			return x.observe(s, c, string(v.stat.Inline))
		case !s.cache.present && s.dfs.exists:
			// Miss-load, in one step: the entry is clean DFS state.
			x.load(s)
		}
		c.phase = phReadDFS

	case phReadDFS:
		if !s.dfs.exists {
			return x.observe(s, c, xGone)
		}
		return x.observe(s, c, s.dfs.data)

	case phFetch:
		switch {
		case c.ev.fetchedAt != 0: // the entry's bytes
			c.ev.fetched = []byte(s.dfs.data)
		case !s.dfs.exists:
			s.done(c, false) // ErrNotExist
			return true
		case c.ev.kind == evRemove:
			c.ev.stat, c.ev.hasStat = s.dfs.stat(), true
		case !s.cache.present:
			x.load(s) // a write's miss-load (add if absent)
		}
		c.phase = phMutate

	case phPush:
		op := Op{Kind: c.out.kind, Path: "/p", Seq: c.out.val.seq, AfterRm: c.out.afterRm}
		if op.Kind != OpRemove {
			op.Stat = c.out.val.stat
		}
		s.queue = append(s.queue, op)
		s.done(c, true)

	case phDrain:
		if s.pendingOn() {
			return false
		}
		c.phase = phMaterialize

	case phMaterialize:
		// Client.materialize: create if missing, the whole file in one
		// write when the claimed entry held it; then the claim's conclusion,
		// the next step's mutate.
		st := c.out.val.stat
		off, data := int(c.ev.off), c.ev.data
		s.dfs.exists = true
		if int64(len(st.Inline)) >= st.Size {
			data, off = spliceInline(st.Inline, c.ev.off, data), 0
		}
		s.dfs.write(off, data)
		s.see(c, s.dfs.data)
		c.ev.kind, c.ev.seq, c.ev.size = evGrown, c.out.val.seq, int64(off+len(data))
		c.phase = phMutate
	}
	return true
}

// observe checks what a read returned: the reader's own newest acked
// write, or a content the file has had since — never an older one.
func (x *explorer) observe(s *xState, c *xClient, got string) bool {
	for _, h := range s.history[c.acked:] {
		if h == got {
			s.done(c, false)
			return true
		}
	}
	short := ""
	if got != xGone && len(got) < len(s.truth()) {
		short = "short read: "
	}
	x.misread = fmt.Sprintf("%sread returned %q, want one of %q", short, got, s.history[c.acked:])
	return true
}

// stepCommit applies the queue's head to the DFS and carries out the row
// commitOutcome answers with, as committer.classify and conclude do.
func (x *explorer) stepCommit(s *xState) bool {
	op := s.queue[0]
	var err error
	switch {
	case op.Kind == OpCreate && s.dfs.exists:
		err = fsapi.ErrExist
	case op.Kind == OpCreate:
		s.dfs = xDFS{exists: true}
	case !s.dfs.exists && !op.NetAbsent:
		err = fsapi.ErrNotExist
	case op.Kind == OpRemove:
		s.dfs = xDFS{}
	default: // a setstat, inline or not, is a BatchSetStat
		s.dfs.setSize(op.Stat.Size)
	}
	var ent cacheVal
	if needsEntry(op.Kind, err) {
		ent = s.cache.val
	}
	v := commitOutcome(&op, err, false, ent, s.cache.present)
	if v.end == endAdopt {
		s.dfs.setSize(op.Stat.Size) // committer.adopt: impose the create's stat
		v = rowCreateLanded
	}
	if v.end == endResubmit {
		return false // stays at the head; nothing changed
	}
	if v.inline && len(op.Stat.Inline) > 0 {
		s.dfs.write(0, op.Stat.Inline)
	}
	x.settle(s, op, v)
	return true
}

// settle gives the entry what row v owes it and takes the op off the
// queue.
func (x *explorer) settle(s *xState, op Op, v commitVerdict) {
	if v.settle != 0 {
		x.runSettle(&s.cache, v.settle, op.Seq)
	}
	s.queue = s.queue[1:]
}

// runSettle runs settle kind under seq on the key as its owner's entryRow
// does, through the table's next: a store is a new version, a delete
// empties the key.
func (x *explorer) runSettle(cur *xCache, kind evKind, seq uint64) {
	switch out := x.tbl.next(cur.val, cur.present, &event{kind: kind, seq: seq}); out.verdict {
	case vStore:
		cur.val = out.val
		cur.ver++
	case vDelete:
		*cur = xCache{ver: cur.ver}
	}
}

// check is the every-step half of the invariants.
func (x *explorer) check(s *xState) string {
	v := s.cache.val
	switch {
	case !s.cache.present:
	case v.removed:
		queued := s.cl[0].phase == phPush || s.cl[1].phase == phPush
		for _, op := range s.queue {
			queued = queued || (op.Kind == OpRemove && op.Seq == v.seq)
		}
		if !v.dirty || !queued {
			return fmt.Sprintf("removed marker %+v without a queued remove of its seq", v)
		}
	case v.dirty:
	case !s.dfs.exists:
		return fmt.Sprintf("clean entry %+v, no DFS file", v)
	case v.stat.Size != int64(len(s.dfs.data)):
		if v.large {
			return fmt.Sprintf("short read: large clean entry caches size %d, DFS holds %d", v.stat.Size, len(s.dfs.data))
		}
		return fmt.Sprintf("clean entry caches size %d, DFS holds %d", v.stat.Size, len(s.dfs.data))
	case v.large && len(v.stat.Inline) > 0:
		return fmt.Sprintf("large clean entry still holds %d inline bytes", len(v.stat.Inline))
	case !v.large && int64(len(v.stat.Inline)) >= v.stat.Size && string(v.stat.Inline) != s.dfs.data:
		return fmt.Sprintf("clean entry holds %q, DFS holds %q", v.stat.Inline, s.dfs.data)
	}
	return ""
}

// checkEnd is the quiescent half: nothing can move any more.
func (x *explorer) checkEnd(s *xState) string {
	switch {
	case len(s.queue) > 0:
		return fmt.Sprintf("op %s seq %d can never commit", s.queue[0].Kind, s.queue[0].Seq)
	case s.cl[0].pc < len(s.cl[0].prog) || s.cl[1].pc < len(s.cl[1].prog):
		return "a client is stuck"
	case s.cache.present && (s.cache.val.dirty || s.cache.val.removed):
		return fmt.Sprintf("entry %+v is neither absent nor clean after the last commit", s.cache.val)
	}
	return ""
}

// xPrograms is every sequence of at most n ops.
func xPrograms(n int) []string {
	out, level := []string{""}, []string{""}
	for ; n > 0; n-- {
		var nextLevel []string
		for _, p := range level {
			for _, op := range "csxrg" {
				nextLevel = append(nextLevel, p+string(op))
			}
		}
		out, level = append(out, nextLevel...), nextLevel
	}
	return out
}

// xStarts are the states a run begins in: nothing anywhere; a committed
// small file cached with its bytes; the same file evicted; the same file
// cached as a miss-load leaves it, without bytes.
func xStarts() map[string]xState {
	file := xDFS{exists: true, data: "zz"}
	loaded := cleanVal(file.stat(), xThreshold)
	full := loaded
	full.stat.Inline = []byte("zz")
	return map[string]xState{
		"empty":   {history: []string{xGone}},
		"cached":  {dfs: file, cache: xCache{val: full, present: true, ver: 1}, history: []string{"zz"}},
		"evicted": {dfs: file, history: []string{"zz"}},
		"loaded":  {dfs: file, cache: xCache{val: loaded, present: true, ver: 1}, history: []string{"zz"}},
	}
}

// runExplorer explores, from each named start, every pair of programs
// with at most ops ops between them (the longer one to client 0: the
// clients differ only in the bytes they write) and one eviction attempt
// anywhere, and returns the first violation found.
func runExplorer(tbl xTable, ops int, starts ...string) (states, ends int, failure string) {
	for _, name := range starts {
		s0 := xStarts()[name]
		for _, p0 := range xPrograms(3) {
			for _, p1 := range xPrograms(3) {
				if len(p0) < len(p1) || len(p0)+len(p1) > ops {
					continue
				}
				x := &explorer{tbl: tbl, seen: map[string]bool{}}
				s := s0.clone()
				s.cl[0].prog, s.cl[1].prog = p0, p1
				s.evicts = 1
				x.explore(s, nil)
				states, ends = states+x.states, ends+x.ends
				if x.bad != nil {
					return states, ends, fmt.Sprintf("start %s, programs %q | %q: %s\ntrace: %s",
						name, p0, p1, x.bad.msg, strings.Join(x.bad.trace, " "))
				}
			}
		}
	}
	return states, ends, ""
}

// TestEntryExplorer is the bounded exhaustive run: two clients, three ops
// between them, about 0.28 million states in under a second. With
// PACON_EXPLORE_OPS=4 it goes one op deeper (3+1 and 2+2: 6.6 million
// states, about 15 s) — the run EXPERIMENTS.md records.
func TestEntryExplorer(t *testing.T) {
	ops := 3
	if v, err := strconv.Atoi(os.Getenv("PACON_EXPLORE_OPS")); err == nil {
		ops = v
	}
	states, ends, failure := runExplorer(xTable{next: next, claimFirst: true}, ops, "empty", "cached", "evicted", "loaded")
	if failure != "" {
		t.Fatal(failure)
	}
	t.Logf("%d ops: explored %d states of the interleavings, %d of them quiescent ends", ops, states, ends)
}

// TestEntryExplorerCatchesParentOrder is the explorer's self-test (the
// LoseOneCommit pattern): with the claim row swapped back to the parent
// commit's order — the DFS first, then one flip of whatever the entry
// holds by then to large and clean — the queued create adopts over the
// bytes just written, and the explorer must say so.
func TestEntryExplorerCatchesParentOrder(t *testing.T) {
	parent := func(cur cacheVal, present bool, ev *event) outcome {
		if ev.kind != evGrown {
			return next(cur, present, ev)
		}
		if !present {
			return outcome{verdict: vKeep}
		}
		cur.large, cur.dirty, cur.stat.Inline = true, false, nil
		if ev.size > cur.stat.Size {
			cur.stat.Size = ev.size
		}
		return outcome{val: cur}
	}
	// From nothing: the file's own create is what is still queued.
	_, _, failure := runExplorer(xTable{next: parent}, 3, "empty")
	if !strings.Contains(failure, "short read") {
		t.Fatalf("the parent's order must fail with a short read, got: %q", failure)
	}
	t.Logf("found, as it must be: %s", failure)
}
