package dfs

import (
	"sync/atomic"

	"pacon/internal/fsapi"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// Client-side routing. Every client fronts a pool of independent MDS
// shards (each with its own namespace tree and service pool) through its
// ShardMap, and every operation asks the map where to go (mdsFor,
// targets, ShardMap.group). What it then does depends only on how many
// targets the map named: one target is one round trip, several are a
// fan-out from one virtual instant (sweep, perShard), and a mutation
// that must be atomic across several runs the two-phase protocol
// (twoPhase). A one-shard map never names more than one, so a
// single MDS is not a mode of this code but its smallest input.

// mdsFor returns the MDS a read of p goes to.
func (c *Client) mdsFor(p string) string {
	s := c.cfg.Shards
	i := s.route(p)
	if i < 0 {
		i = c.mirrorPick
	}
	return s.addrs[i]
}

// targets returns the shards an operation on p goes to: its owner, or
// every shard when p is mirrored. A hash-zone directory lives whole on
// its owner, so a directory-wide operation (readdir, rmdir, rmtree) has
// the same targets as a mutation of the directory itself.
func (c *Client) targets(p string) []string {
	s := c.cfg.Shards
	if i := s.route(p); i >= 0 {
		return s.addrs[i : i+1]
	}
	return s.addrs
}

// call issues one RPC whose request was built in the pooled encoder e,
// released here, and hands a successful reply to decode (nil: the reply
// is not read) where it landed, in a pooled encoder of the call's own —
// so decode must copy out whatever it keeps. decode's error is the
// call's.
func (c *Client) call(addr, method string, at vclock.Time, e *wire.Encoder, decode func(resp []byte) error) (vclock.Time, error) {
	reply := wire.GetEncoder()
	done, err := c.caller.CallInto(addr, method, at, e.Bytes(), reply)
	wire.PutEncoder(e)
	if err == nil && decode != nil {
		err = decode(reply.Bytes())
	}
	wire.PutEncoder(reply)
	return done, err
}

// reply is one target's answer to a sweep.
type reply struct {
	body []byte
	err  error
}

// firstErr returns the first target's error, in target order.
func firstErr(rs []reply) error {
	for _, r := range rs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// sweep sends the request in e — released here — to every target from
// the same virtual instant and returns each one's reply in target order
// and the latest completion. Every target is attempted whatever the
// others answer: mirrors stay in lockstep, and a caller that must know
// which shards acted can tell. A lone target is called directly, so the
// common case builds no closure (nothing the closure captures may be
// reassigned here either, or it would move to the heap on every path).
func (c *Client) sweep(at vclock.Time, targets []string, method string, e *wire.Encoder) ([]reply, vclock.Time) {
	out := make([]reply, len(targets))
	body := e.Bytes()
	var latest vclock.Time
	if len(targets) == 1 {
		latest, out[0].body, out[0].err = c.caller.Call(targets[0], method, at, body)
	} else {
		latest = c.caller.FanOut(at, len(targets), false, func(i int) (done vclock.Time) {
			done, out[i].body, out[i].err = c.caller.Call(targets[i], method, at, body)
			return done
		})
	}
	wire.PutEncoder(e)
	return out, latest
}

// perShard makes one call per group of a batch, all from the same
// virtual instant; the batch completes when the slowest group does. A
// group's call fills the result slots of its own positions, a failure
// included (applyDirs, statGroup), so groups never share a slot and there
// is no error to return: a dead shard costs the batch that shard's share
// and nothing else. These are the calls a commit wave makes, and the
// fan-out is asked to block for them: each group rides its own goroutine
// on every transport, as it always has, and the process waits
// (rpc.Caller.FanOut says what depends on that).
func (c *Client) perShard(at vclock.Time, groups []shardGroup, call func(g shardGroup, at vclock.Time) vclock.Time) vclock.Time {
	return c.caller.FanOut(at, len(groups), true, func(i int) vclock.Time {
		return call(groups[i], at)
	})
}

// protoSeq numbers the two-phase protocols; ids only need to be unique
// among concurrently active intents, so a process-wide counter serves
// every client.
var protoSeq atomic.Uint64

// step names one endpoint of the two-phase protocol. Every such endpoint
// takes the same frame — the subtree root, the caller's credential where
// the step checks a permission, the protocol id. reports marks a finish
// whose reply says what it swept: sent twice, the second answer would
// describe a tree the first already removed.
type step struct {
	method  string
	cred    bool
	reports bool
}

var (
	renamePrepare = step{method: "xfer_prepare", cred: true}
	rmdirPrepare  = step{method: "rmdir_prepare", cred: true}
	rmtreePrepare = step{method: "intent_put"}
	finishSweep   = step{method: "intent_finish"}
	rmtreeSweep   = step{method: "rmtree", cred: true, reports: true}
	abortStep     = step{method: "intent_del"}
)

// send runs one protocol step for the subtree at p on the given shards.
func (c *Client) send(at vclock.Time, on []string, s step, p string, id uint64) ([]reply, vclock.Time) {
	e := wire.GetEncoder()
	e.String(p)
	if s.cred {
		e.Uint32(c.cfg.Cred.UID)
		e.Uint32(c.cfg.Cred.GID)
	}
	e.Uvarint(id)
	return c.sweep(at, on, s.method, e)
}

// twoPhase runs a mutation of the subtree at p that must be atomic
// across the shards in `on` — the one multi-shard protocol (DESIGN.md
// §10). It allocates the protocol id; has every participant prepare
// (vote, and log an intent that blocks overlapping mutations); lets
// decide, if any, make the decision from the votes' replies; then
// either finishes on every participant (sweep under the intent, release
// it) and returns their replies, or — any vote against, or decide
// failing — aborts, releasing the intents of exactly the participants
// that logged one, and returns the reason. A finish that may not have
// reached its shard would leave that shard's intent behind: one whose
// reply carries nothing is idempotent and is sent once more, one that
// reports its sweep keeps its error and has the intent released instead.
// A shard that stays unreachable clears its volatile intent log when it
// recovers, which aborts its side. Callers supply participants and
// endpoints and never see the id, the prepared subset or the abort.
func (c *Client) twoPhase(at vclock.Time, p string, on []string, prepare, finish step,
	decide func(at vclock.Time, votes []reply) (vclock.Time, error)) ([]reply, vclock.Time, error) {
	id := protoSeq.Add(1)
	votes, at := c.send(at, on, prepare, p, id)
	err := firstErr(votes)
	if err == nil && decide != nil {
		at, err = decide(at, votes)
	}
	if err != nil {
		var prepared []string
		for i, v := range votes {
			if v.err == nil {
				prepared = append(prepared, on[i])
			}
		}
		_, at = c.send(at, prepared, abortStep, p, id)
		return nil, at, err
	}
	outs, at := c.send(at, on, finish, p, id)
	for i := range outs {
		// Not an answer from the shard's handler: it may never have run.
		if code := fsapi.CodeOf(outs[i].err); code != fsapi.CodeClosed && code != fsapi.CodeOther {
			continue
		}
		if finish.reports {
			_, at = c.send(at, on[i:i+1], abortStep, p, id)
		} else {
			var again []reply
			again, at = c.send(at, on[i:i+1], finish, p, id)
			outs[i] = again[0]
		}
	}
	return outs, at, nil
}

// decodeDirEntries decodes a readdir reply.
func decodeDirEntries(resp []byte) ([]fsapi.DirEntry, error) {
	d := wire.NewDecoder(resp)
	n := d.Count()
	ents := make([]fsapi.DirEntry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ents = append(ents, fsapi.DirEntry{Name: d.String(), Type: fsapi.FileType(d.Byte())})
	}
	return ents, d.Finish()
}

// mergeDirEntries k-way merges name-sorted listings, dropping duplicate
// names (mirrored structural subdirectories).
func mergeDirEntries(lists [][]fsapi.DirEntry) []fsapi.DirEntry {
	if len(lists) == 1 {
		return lists[0]
	}
	idx := make([]int, len(lists))
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]fsapi.DirEntry, 0, total)
	for {
		best := -1
		for li, l := range lists {
			if idx[li] >= len(l) {
				continue
			}
			if best < 0 || l[idx[li]].Name < lists[best][idx[best]].Name {
				best = li
			}
		}
		if best < 0 {
			return out
		}
		ent := lists[best][idx[best]]
		idx[best]++
		if len(out) == 0 || out[len(out)-1].Name != ent.Name {
			out = append(out, ent)
		}
	}
}
