package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// These tests are the transition table read row by row: one case per row
// of next and of commitOutcome. The interleavings that combine the rows
// are entry_explore_test.go's.

func fileStat(size int64, inline string) fsapi.Stat {
	st := fsapi.Stat{Type: fsapi.TypeFile, Mode: 0o644, Size: size}
	if inline != "" {
		st.Inline = []byte(inline)
	}
	return st
}

func TestClientRows(t *testing.T) {
	const threshold = 4
	dir := fsapi.Stat{Type: fsapi.TypeDir, Mode: 0o755}
	var (
		absent  = cacheVal{}
		marker  = cacheVal{removed: true, dirty: true, seq: 5, stat: fileStat(2, "ab")}
		claimed = cacheVal{large: true, dirty: true, seq: 7, stat: fileStat(2, "ab")}
		small   = cacheVal{dirty: true, seq: 3, stat: fileStat(2, "ab")}
		loaded  = cacheVal{stat: fileStat(2, "")} // a miss-load: no bytes
		large   = cacheVal{large: true, seq: 3, stat: fileStat(9, "")}
		cdir    = cacheVal{stat: dir}
	)
	write := func(off int64, data string) event {
		return event{kind: evWrite, seq: 9, off: off, data: []byte(data), threshold: threshold}
	}
	cases := []struct {
		name    string
		cur     cacheVal
		present bool
		ev      event

		verdict verdict
		err     error
		val     cacheVal // vStore: the value stored
		enqueue bool
		kind    OpKind
		afterRm bool
	}{
		{name: "create/absent", cur: absent, ev: event{kind: evCreate, seq: 9, stat: fileStat(0, "")},
			val: cacheVal{dirty: true, seq: 9, stat: fileStat(0, "")}, enqueue: true, kind: OpCreate},
		{name: "mkdir/absent", cur: absent, ev: event{kind: evCreate, seq: 9, stat: dir},
			val: cacheVal{dirty: true, seq: 9, stat: dir}, enqueue: true, kind: OpMkdir},
		{name: "create/marker is create-after-rm", cur: marker, present: true, ev: event{kind: evCreate, seq: 9, stat: fileStat(0, "")},
			val: cacheVal{dirty: true, seq: 9, stat: fileStat(0, "")}, enqueue: true, kind: OpCreate, afterRm: true},
		{name: "create/live", cur: small, present: true, ev: event{kind: evCreate, seq: 9}, verdict: vFail, err: fsapi.ErrExist},
		{name: "create/claimed", cur: claimed, present: true, ev: event{kind: evCreate, seq: 9}, verdict: vFail, err: fsapi.ErrExist},

		{name: "remove/absent asks for the DFS stat", cur: absent, ev: event{kind: evRemove, seq: 9}, verdict: vFetch},
		{name: "remove/absent, on the DFS", cur: absent, ev: event{kind: evRemove, seq: 9, stat: fileStat(2, ""), hasStat: true},
			val: cacheVal{removed: true, dirty: true, seq: 9, stat: fileStat(2, "")}, enqueue: true, kind: OpRemove},
		{name: "remove/absent, a directory on the DFS", cur: absent, ev: event{kind: evRemove, seq: 9, stat: dir, hasStat: true}, verdict: vFail, err: fsapi.ErrIsDir},
		{name: "remove/marker", cur: marker, present: true, ev: event{kind: evRemove, seq: 9}, verdict: vFail, err: fsapi.ErrNotExist},
		{name: "remove/claimed waits", cur: claimed, present: true, ev: event{kind: evRemove, seq: 9}, verdict: vWait},
		{name: "remove/live", cur: small, present: true, ev: event{kind: evRemove, seq: 9},
			val: cacheVal{removed: true, dirty: true, seq: 9, stat: fileStat(2, "ab")}, enqueue: true, kind: OpRemove},
		{name: "remove/large keeps the flag", cur: large, present: true, ev: event{kind: evRemove, seq: 9},
			val: cacheVal{removed: true, dirty: true, large: true, seq: 9, stat: fileStat(9, "")}, enqueue: true, kind: OpRemove},
		{name: "remove/dir", cur: cdir, present: true, ev: event{kind: evRemove, seq: 9}, verdict: vFail, err: fsapi.ErrIsDir},

		{name: "write/absent asks for a load", cur: absent, ev: write(0, "x"), verdict: vFetch},
		{name: "write/marker", cur: marker, present: true, ev: write(0, "x"), verdict: vFail, err: fsapi.ErrNotExist},
		{name: "write/dir", cur: cdir, present: true, ev: write(0, "x"), verdict: vFail, err: fsapi.ErrIsDir},
		{name: "write/claimed waits", cur: claimed, present: true, ev: write(0, "x"), verdict: vWait},
		{name: "write/large writes through", cur: large, present: true, ev: write(0, "x"), verdict: vKeep},
		{name: "write-inline/live", cur: small, present: true, ev: write(1, "xy"),
			val: cacheVal{dirty: true, seq: 9, stat: fileStat(3, "axy")}, enqueue: true, kind: OpSetStat},
		{name: "write-inline/loaded asks for the bytes", cur: loaded, present: true, ev: write(1, "xy"), verdict: vFetch},
		{name: "write-crossing/live claims", cur: small, present: true, ev: write(1, "wxyz"),
			val: cacheVal{large: true, dirty: true, seq: 9, stat: fileStat(2, "ab")}},
		{name: "write-crossing/loaded claims without the bytes", cur: loaded, present: true, ev: write(1, "wxyz"),
			val: cacheVal{large: true, dirty: true, seq: 9, stat: fileStat(2, "")}},

		{name: "grown/own claim", cur: claimed, present: true, ev: event{kind: evGrown, seq: 7, size: 5},
			val: cacheVal{large: true, seq: 7, stat: fileStat(5, "")}},
		{name: "grown/absent: dropped, the DFS has it", cur: absent, ev: event{kind: evGrown, seq: 7, size: 5}, verdict: vKeep},
		{name: "grown/replaced", cur: claimed, present: true, ev: event{kind: evGrown, seq: 8, size: 5}, verdict: vFail, err: fsapi.ErrStale},
		{name: "grown/taken back by a waiter", cur: small, present: true, ev: event{kind: evGrown, seq: 3, size: 5}, verdict: vFail, err: fsapi.ErrStale},
		{name: "grown/marker", cur: marker, present: true, ev: event{kind: evGrown, seq: 5, size: 5}, verdict: vFail, err: fsapi.ErrStale},
		{name: "rollback/own claim", cur: claimed, present: true, ev: event{kind: evRollback, seq: 7},
			val: cacheVal{dirty: true, seq: 7, stat: fileStat(2, "ab")}, enqueue: true, kind: OpSetStat},
		{name: "rollback/absent", cur: absent, ev: event{kind: evRollback, seq: 7}, verdict: vKeep},
		{name: "rollback/resolved meanwhile", cur: large, present: true, ev: event{kind: evRollback, seq: 7}, verdict: vKeep},

		{name: "size-bump/large grows", cur: large, present: true, ev: event{kind: evSizeBump, size: 12},
			val: cacheVal{large: true, seq: 3, stat: fileStat(12, "")}},
		{name: "size-bump/large, not past the cached size", cur: large, present: true, ev: event{kind: evSizeBump, size: 9}, verdict: vKeep},
		{name: "size-bump/claimed", cur: claimed, present: true, ev: event{kind: evSizeBump, size: 12}, verdict: vKeep},
		{name: "size-bump/marker", cur: marker, present: true, ev: event{kind: evSizeBump, size: 12}, verdict: vKeep},
		{name: "size-bump/absent", cur: absent, ev: event{kind: evSizeBump, size: 12}, verdict: vKeep},

		{name: "load/absent, small", cur: absent, ev: event{kind: evLoad, stat: fileStat(4, ""), threshold: threshold},
			val: cacheVal{stat: fileStat(4, "")}},
		{name: "load/absent, large", cur: absent, ev: event{kind: evLoad, stat: fileStat(5, ""), threshold: threshold},
			val: cacheVal{large: true, stat: fileStat(5, "")}},
		{name: "load/present", cur: small, present: true, ev: event{kind: evLoad, stat: fileStat(5, "")}, verdict: vKeep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.ev.op, tc.ev.path = "op", "/w/f"
			out := next(tc.cur, tc.present, &tc.ev)
			if out.verdict != tc.verdict || !errors.Is(out.err, tc.err) || (tc.err == nil) != (out.err == nil) {
				t.Fatalf("verdict %d err %v, want verdict %d err %v", out.verdict, out.err, tc.verdict, tc.err)
			}
			if out.verdict != vStore {
				return
			}
			if fmt.Sprintf("%+v", out.val) != fmt.Sprintf("%+v", tc.val) {
				t.Fatalf("stores %+v, want %+v", out.val, tc.val)
			}
			if out.enqueue != tc.enqueue || (out.enqueue && out.kind != tc.kind) || out.afterRm != tc.afterRm {
				t.Fatalf("enqueue=%v kind=%v afterRm=%v, want %v %v %v", out.enqueue, out.kind, out.afterRm, tc.enqueue, tc.kind, tc.afterRm)
			}
		})
	}
}

func TestCommitRows(t *testing.T) {
	const seq = 7
	own := cacheVal{dirty: true, seq: seq, stat: fileStat(0, "")}
	entry := func(mut func(*cacheVal)) *cacheVal {
		v := own
		mut(&v)
		return &v
	}
	drop := func(kind OpKind) commitVerdict { return rowDrop(kind, dropReasonBackendError) }
	cases := []struct {
		name     string
		op       Op
		err      error
		removing bool
		ent      *cacheVal // nil: the cache holds nothing
		want     commitVerdict
	}{
		{name: "create/ok", op: Op{Kind: OpCreate}, want: rowCreateLanded},
		{name: "mkdir/ok", op: Op{Kind: OpMkdir}, want: rowCreateLanded},
		{name: "create/ErrNotExist: parent not committed", op: Op{Kind: OpCreate}, err: fsapi.ErrNotExist, want: rowResubmit},
		{name: "create/ErrClosed", op: Op{Kind: OpCreate}, err: fsapi.ErrClosed, want: rowResubmit},
		{name: "create/ErrStale", op: Op{Kind: OpCreate}, err: fsapi.ErrStale, want: rowResubmit},
		{name: "create/other", op: Op{Kind: OpCreate}, err: fsapi.ErrPermission,
			want: commitVerdict{end: endDrop, settle: settleDeleteSeq, reason: dropReasonBackendError}},

		{name: "create/ErrExist, entry gone", op: Op{Kind: OpCreate}, err: fsapi.ErrExist, want: rowResubmit},
		{name: "create/ErrExist, entry a marker", op: Op{Kind: OpCreate}, err: fsapi.ErrExist,
			ent: entry(func(v *cacheVal) { v.removed = true }), want: rowResubmit},
		{name: "create/ErrExist row 1: a claimed entry owns its DFS copy", op: Op{Kind: OpCreate}, err: fsapi.ErrExist,
			ent: entry(func(v *cacheVal) { v.large = true }), want: commitVerdict{end: endCommitted}},
		{name: "create/ErrExist row 1: a large clean entry", op: Op{Kind: OpCreate, AfterRm: true}, err: fsapi.ErrExist,
			ent: entry(func(v *cacheVal) { v.large, v.dirty = true, false }), want: commitVerdict{end: endCommitted}},
		{name: "create/ErrExist row 1: the entry moved on", op: Op{Kind: OpCreate}, err: fsapi.ErrExist,
			ent: entry(func(v *cacheVal) { v.seq++ }), want: commitVerdict{end: endCommitted, settle: settleClear}},
		{name: "create/ErrExist row 1: the entry is clean", op: Op{Kind: OpCreate}, err: fsapi.ErrExist,
			ent: entry(func(v *cacheVal) { v.dirty = false }), want: commitVerdict{end: endCommitted, settle: settleClear}},
		{name: "create/ErrExist row 2: create-after-rm waits for the remove", op: Op{Kind: OpCreate, AfterRm: true}, err: fsapi.ErrExist,
			ent: &own, want: rowResubmit},
		{name: "create/ErrExist row 3: adopt", op: Op{Kind: OpCreate}, err: fsapi.ErrExist,
			ent: &own, want: commitVerdict{end: endAdopt}},

		{name: "remove/ok", op: Op{Kind: OpRemove}, want: rowRemoveLanded},
		{name: "remove/ErrNotExist, net-absent", op: Op{Kind: OpRemove, NetAbsent: true}, err: fsapi.ErrNotExist, want: rowRemoveLanded},
		{name: "remove/ErrNotExist under rmdir", op: Op{Kind: OpRemove}, err: fsapi.ErrNotExist, removing: true,
			want: commitVerdict{end: endDiscarded, settle: settleDeleteSeqRemoved}},
		{name: "remove/ErrNotExist: its create is still queued", op: Op{Kind: OpRemove}, err: fsapi.ErrNotExist, want: rowResubmit},
		{name: "remove/ErrClosed", op: Op{Kind: OpRemove}, err: fsapi.ErrClosed, want: rowResubmit},
		{name: "remove/other", op: Op{Kind: OpRemove}, err: fsapi.ErrIsDir,
			want: commitVerdict{end: endDrop, settle: settleDeleteSeqRemoved, reason: dropReasonBackendError}},

		{name: "setstat/ok", op: Op{Kind: OpSetStat}, want: rowSetStatLanded},
		{name: "setstat/ErrNotExist under rmdir", op: Op{Kind: OpSetStat}, err: fsapi.ErrNotExist, removing: true,
			want: commitVerdict{end: endDiscarded}},
		{name: "setstat/ErrNotExist: create in flight", op: Op{Kind: OpSetStat}, err: fsapi.ErrNotExist, want: rowResubmit},
		{name: "setstat/ErrStale", op: Op{Kind: OpSetStat}, err: fsapi.ErrStale, want: rowResubmit},
		{name: "setstat/other", op: Op{Kind: OpSetStat}, err: fsapi.ErrPermission, want: drop(OpSetStat)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.op.Seq = seq
			err := tc.err
			if err != nil {
				err = fsapi.WrapPath("op", "/w/f", err)
			}
			var ent cacheVal
			if tc.ent != nil {
				if !needsEntry(tc.op.Kind, err) {
					t.Fatal("case supplies an entry the row does not read")
				}
				ent = *tc.ent
			}
			if got := commitOutcome(&tc.op, err, tc.removing, ent, tc.ent != nil); got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestValueHeaderIsOneContract: core writes the flags and memcache
// settles by them. Every flag combination goes through cacheVal.encode
// into memcache.ParseValueHeader, and every settle action through a real
// SettleMulti against every combination, so the two modules cannot drift.
func TestValueHeaderIsOneContract(t *testing.T) {
	const seq = 300 // a two-byte uvarint
	srv := memcache.NewServer("n0/cache", memcache.ServerConfig{Model: vclock.Default()})
	settles := map[string]func(v cacheVal, match bool) (gone bool, after cacheVal){
		"clear": func(v cacheVal, match bool) (bool, cacheVal) {
			if match {
				v.dirty = false
			}
			return false, v
		},
		"seq":         func(v cacheVal, match bool) (bool, cacheVal) { return match, v },
		"seq-removed": func(v cacheVal, match bool) (bool, cacheVal) { return match && v.removed, v },
		"clean":       func(v cacheVal, match bool) (bool, cacheVal) { return !v.dirty && !v.removed, v },
		"always":      func(v cacheVal, match bool) (bool, cacheVal) { return true, v },
	}
	entries := map[string]memcache.Settle{
		"clear":       {Clear: true},
		"seq":         {Cond: memcache.CondSeq},
		"seq-removed": {Cond: memcache.CondSeqRemoved},
		"clean":       {Cond: memcache.CondClean},
		"always":      {Cond: memcache.CondAlways},
	}
	for bits := 0; bits < 8; bits++ {
		v := cacheVal{dirty: bits&1 != 0, removed: bits&2 != 0, large: bits&4 != 0, seq: seq, stat: fileStat(2, "ab")}
		raw := v.encode()
		flags, hseq, n, ok := memcache.ParseValueHeader(raw)
		if !ok || hseq != seq || n != 3 ||
			(flags&memcache.HdrDirty != 0) != v.dirty || (flags&memcache.HdrRemoved != 0) != v.removed || (flags&memcache.HdrLarge != 0) != v.large {
			t.Fatalf("%+v encodes to header flags=%#x seq=%d n=%d ok=%v", v, flags, hseq, n, ok)
		}
		if back, err := decodeCacheVal(raw); err != nil || fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", v) {
			t.Fatalf("round trip %+v → %+v, %v", v, back, err)
		}
		for name, want := range settles {
			for _, match := range []bool{true, false} {
				if _, _, err := srv.Set(0, "/w/k", raw, 0); err != nil {
					t.Fatal(err)
				}
				en := entries[name]
				en.Key, en.Seq = "/w/k", seq
				if !match {
					en.Seq++
				}
				srv.SettleMulti(0, []memcache.Settle{en})
				gone, after := want(v, match)
				item, _, err := srv.Get(0, "/w/k")
				if gone != errors.Is(err, fsapi.ErrNotExist) {
					t.Fatalf("%s (seq match %v) on %+v: deleted=%v, want %v", name, match, v, err != nil, gone)
				}
				if !gone && !bytes.Equal(item.Value, after.encode()) {
					got, _ := decodeCacheVal(item.Value)
					t.Fatalf("%s (seq match %v) on %+v left %+v, want %+v", name, match, v, got, after)
				}
			}
		}
	}
}

// FuzzCacheValDecode: whatever bytes a cache server hands back, the two
// decoders of a value — decodeCacheVal and a read's decodeStatResult —
// answer with an error or a value, never a panic, and agree; a value that
// decodes re-encodes to bytes that decode to it again and re-encode to
// themselves; and bytes in canonical form (minimal varints, which is to
// say no longer than their re-encoding) re-encode to the same bytes, the
// flag bits no one defined aside.
func FuzzCacheValDecode(f *testing.F) {
	for _, v := range []cacheVal{
		{},
		{dirty: true, seq: 3, stat: fileStat(2, "ab")},
		{removed: true, dirty: true, seq: 1 << 40, stat: fileStat(2, "ab")},
		{large: true, seq: 7, stat: fileStat(1<<20, "")},
		{stat: fsapi.Stat{Type: fsapi.TypeDir, Mode: 0o755, UID: 1000, GID: 1000, Nlink: 2, Mtime: 5, Ctime: 5}},
	} {
		f.Add(v.encode())
	}
	whole := cacheVal{dirty: true, seq: 3, stat: fileStat(2, "ab")}.encode()
	f.Add(whole[:len(whole)-1])                                      // cut inside the inline bytes
	f.Add(append(append([]byte(nil), whole...), 0))                  // a trailing byte
	f.Add(append([]byte{0xff, 0x83, 0x80, 0x00}, whole[2:]...))      // unknown flag bits, a non-minimal seq
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a seq that never ends
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := decodeCacheVal(raw)
		sr := decodeStatResult("stat", "/w/p", raw)
		switch {
		case err != nil:
			if sr.Err == nil {
				t.Fatalf("decodeCacheVal refused %x (%v), decodeStatResult answered %+v", raw, err, sr.Stat)
			}
			return
		case v.removed != errors.Is(sr.Err, fsapi.ErrNotExist) || (!v.removed && sr.Err != nil):
			t.Fatalf("removed=%v, decodeStatResult's error %v", v.removed, sr.Err)
		case !v.removed && (sr.Stat.Size != v.stat.Size || !bytes.Equal(sr.Stat.Inline, v.stat.Inline)):
			t.Fatalf("decodeStatResult's stat %+v, decodeCacheVal's %+v", sr.Stat, v.stat)
		}
		enc := v.encode()
		again, err := decodeCacheVal(enc)
		if err != nil || !bytes.Equal(again.encode(), enc) {
			t.Fatalf("%x re-encodes to %x, which decodes with %v and re-encodes to %x", raw, enc, err, again.encode())
		}
		if len(enc) > len(raw) {
			t.Fatalf("%x re-encodes longer, to %x", raw, enc)
		}
		if len(enc) == len(raw) {
			canon := append([]byte(nil), raw...)
			canon[0] &= memcache.HdrDirty | memcache.HdrRemoved | memcache.HdrLarge
			if !bytes.Equal(enc, canon) {
				t.Fatalf("%x re-encodes to %x", raw, enc)
			}
		}
	})
}

// FuzzEventDecode: whatever a mutate request carries, decodeEvent answers
// with an error or an event, never a panic, and an event re-encodes to
// bytes that decode to it again. The row the cache server runs on the
// request, against an absent key, a small entry, a claim, an entry loaded
// without its bytes and a value with no header, fails when the event does
// not decode, stores nothing and answers nothing when it fails, and
// otherwise answers something decodeAnswer reads, storing a value that
// decodes.
func FuzzEventDecode(f *testing.F) {
	enc := func(ev event) []byte {
		e := wire.NewEncoder(64)
		ev.encodeTo(e)
		return e.Bytes()
	}
	for _, ev := range []event{
		{kind: evCreate, seq: 9, stat: fileStat(0, "")},
		{kind: evRemove, seq: 9},
		{kind: evRemove, seq: 9, stat: fileStat(2, ""), hasStat: true},
		{kind: evWrite, seq: 9, off: 1, data: []byte("xy")},
		{kind: evWrite, seq: 9, off: 1, data: []byte("wxyz")},
		{kind: evWrite, seq: 9, data: []byte("x"), fetched: []byte("ab"), fetchedAt: 5},
		{kind: evGrown, seq: 7, size: 12},
		{kind: evRollback, seq: 7},
		{kind: evSizeBump, size: 12},
	} {
		f.Add(enc(ev))
	}
	write := enc(event{kind: evWrite, seq: 9, data: []byte("xy")})
	f.Add(write[:len(write)-3])                                  // truncated inside the data
	f.Add(append([]byte{0x7f}, write[1:]...))                    // an unknown kind
	f.Add(append(append([]byte(nil), write[:3]...), 0xff, 0x7f)) // an offset past maxOffset, cut
	f.Add(append(append([]byte(nil), write[:5]...), 0xe8, 0x07)) // data longer than the frame
	f.Add([]byte{})

	stored := []*memcache.Item{
		nil,
		{Value: cacheVal{dirty: true, seq: 3, stat: fileStat(2, "ab")}.encode(), CAS: 5},
		{Value: cacheVal{large: true, dirty: true, seq: 7, stat: fileStat(2, "ab")}.encode(), CAS: 6},
		{Value: cacheVal{stat: fileStat(2, "")}.encode(), CAS: 7},
		{Value: []byte{}, CAS: 8},
	}
	row := entryRow(4)
	f.Fuzz(func(t *testing.T, raw []byte) {
		ev, derr := decodeEvent(raw)
		if derr == nil {
			again, err := decodeEvent(enc(ev))
			if err != nil || fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", ev) {
				t.Fatalf("%x decodes to %+v, which re-encodes to %+v, %v", raw, ev, again, err)
			}
		}
		for _, cur := range stored {
			val, reply := wire.NewEncoder(0), wire.NewEncoder(0)
			store, err := row(cur, raw, val, reply)
			switch {
			case derr != nil && err == nil:
				t.Fatalf("the row took %x, which does not decode: %v", raw, derr)
			case err != nil:
				if store || val.Len() != 0 || reply.Len() != 0 {
					t.Fatalf("the row failed (%v) yet stored %v, %d value bytes, %d reply bytes", err, store, val.Len(), reply.Len())
				}
				continue
			}
			if err := decodeAnswer(reply.Bytes(), &outcome{}); err != nil {
				t.Fatalf("answer %x: %v", reply.Bytes(), err)
			}
			if _, err := decodeCacheVal(val.Bytes()); store && err != nil {
				t.Fatalf("stored %x: %v", val.Bytes(), err)
			}
		}
	})
}

// TestFetchedBytesCountForTheirVersionOnly: a write to an entry loaded
// without its bytes resends with the bytes it read from the DFS and the CAS
// version of the entry it read them for. The owner's row splices over them
// while the entry is that one, and asks again, with the version it holds
// now, once the entry has moved: bytes read before it moved are never
// written back over it.
func TestFetchedBytesCountForTheirVersionOnly(t *testing.T) {
	row := entryRow(8)
	loaded := &memcache.Item{Value: cacheVal{stat: fileStat(3, "")}.encode(), CAS: 5}
	send := func(fetchedAt uint64) (bool, outcome, []byte) {
		t.Helper()
		req, val, reply := wire.NewEncoder(0), wire.NewEncoder(0), wire.NewEncoder(0)
		ev := event{kind: evWrite, seq: 9, off: 1, data: []byte("X"), fetched: []byte("abc"), fetchedAt: fetchedAt}
		ev.encodeTo(req)
		store, err := row(loaded, req.Bytes(), val, reply)
		var a outcome
		if err == nil {
			err = decodeAnswer(reply.Bytes(), &a)
		}
		if err != nil {
			t.Fatal(err)
		}
		return store, a, val.Bytes()
	}
	store, a, val := send(5)
	v, err := decodeCacheVal(val)
	if !store || !a.enqueue || a.kind != OpSetStat || err != nil || string(v.stat.Inline) != "aXc" || string(a.val.stat.Inline) != "aXc" {
		t.Fatalf("bytes for the entry's version: store %v, answer %+v, value %+v %v; want aXc stored and queued", store, a, v, err)
	}
	if store, a, _ = send(4); store || a.verdict != vFetch || a.val.seq != 5 || a.val.stat.Size != 3 {
		t.Fatalf("bytes for an older version: store %v, answer %+v; want a fetch for version 5", store, a)
	}
}

// TestMutationIsOneCacheRoundTrip: the entry's owner applies the row in
// one request, so an acked mutation costs one cache round trip — an inline
// write, a cached rm, a create over the removed marker — where a get and a
// cas cost two, and a create that met the marker three. A write through to
// a large file is two: the request that finds it large, then the size
// bump.
func TestMutationIsOneCacheRoundTrip(t *testing.T) {
	e := newEnv(t, 4, func(cfg *RegionConfig) { cfg.SmallFileThreshold = 8 })
	c := e.client(t, "node0")
	at, err := c.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	trips := func(name string, want int64, op func() (vclock.Time, error)) {
		t.Helper()
		before := c.CacheRPCs()
		if at, err = op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.CacheRPCs() - before; got != want {
			t.Errorf("%s: %d cache round trips, want %d", name, got, want)
		}
	}
	release := holdCommits(t, e.region) // the remove stays queued, its marker cached
	trips("inline write", 1, func() (vclock.Time, error) { return c.WriteAt(at, "/w/f", 0, []byte("abc")) })
	trips("cached rm", 1, func() (vclock.Time, error) { return c.Remove(at, "/w/f") })
	trips("create over the removed marker", 1, func() (vclock.Time, error) { return c.Create(at, "/w/f", 0o644) })
	release()
	if at, err = c.WriteAt(at, "/w/f", 0, bytes.Repeat([]byte("L"), 20)); err != nil {
		t.Fatal(err)
	}
	trips("write through to a large file", 2, func() (vclock.Time, error) { return c.WriteAt(at, "/w/f", 20, []byte("more")) })
}

// statCounter is a Backend that counts the authoritative reads made through
// it, and runs after, when set, once a Stat has read the DFS.
type statCounter struct {
	Backend
	stats atomic.Int64
	after func(p string)
}

func (s *statCounter) Stat(at vclock.Time, p string) (fsapi.Stat, vclock.Time, error) {
	s.stats.Add(1)
	st, done, err := s.Backend.Stat(at, p)
	if s.after != nil {
		s.after(p)
	}
	return st, done, err
}

func (s *statCounter) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	s.stats.Add(1)
	return s.Backend.StatBatch(at, paths)
}

// countedEnv is newEnv with every backend a statCounter: the client's own
// is c.backend, the cache servers' loaders hold the others.
func countedEnv(t *testing.T, n int, mutate func(*RegionConfig)) *env {
	return newEnvDeps(t, n, mutate, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend { return &statCounter{Backend: inner(node)} }
	})
}

// TestMissIsOneCacheRoundTrip: a miss on the region's own cache is loaded
// by the owning cache server in the get or get_multi that found it, so the
// reader pays one round trip per owner — the DFS read happens at the owner
// and no add follows, the client's own backend reads nothing. That holds
// for a Stat, for a write to an uncached file, whose miss-load is one get
// between the mutate that found the entry absent and the one that applies
// the write, and for a StatMulti's misses, one get_multi per owner. Every
// entry a load adds counts as a cache warm.
func TestMissIsOneCacheRoundTrip(t *testing.T) {
	e := countedEnv(t, 4, nil)
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w/d", 0o777); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 16)
	owners := map[string]bool{}
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/d/f%02d", i)
		owners[e.region.Ring().Lookup(paths[i])] = true
	}
	for _, p := range append([]string{"/w/f", "/w/g"}, paths...) {
		if _, err := admin.Create(0, p, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	c := e.client(t, "node0")
	own := c.backend.(*statCounter)
	trips := func(name string, want int64, wantCalls map[string]int, ownReads int64, op func() error) {
		t.Helper()
		hook := &rpcHook{}
		e.bus.SetObserver(hook)
		before, reads := c.CacheRPCs(), own.stats.Load()
		err := op()
		e.bus.SetObserver(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.CacheRPCs() - before; got != want {
			t.Errorf("%s: %d cache round trips, want %d", name, got, want)
		}
		for method, n := range wantCalls {
			if got := hook.count(method); got != n {
				t.Errorf("%s: %d %s RPCs, want %d", name, got, method, n)
			}
		}
		if got := own.stats.Load() - reads; got != ownReads {
			t.Errorf("%s: the client read the DFS %d times itself, want %d", name, got, ownReads)
		}
	}
	trips("Stat miss", 1, map[string]int{"get": 1}, 0, func() error {
		_, _, err := c.Stat(0, "/w/f")
		return err
	})
	trips("write to an uncached file", 3, map[string]int{"mutate": 2, "get": 1}, 0, func() error {
		_, err := c.WriteAt(0, "/w/g", 0, []byte("abc"))
		return err
	})
	trips("StatMulti misses", int64(len(owners)), map[string]int{"get_multi": len(owners), "get": 0}, 0, func() error {
		res, _, err := c.StatMulti(0, paths)
		for _, r := range res {
			if err == nil && (r.Err != nil || r.Stat.Type != fsapi.TypeFile) {
				err = fmt.Errorf("result %+v, %v", r.Stat, r.Err)
			}
		}
		return err
	})
	trips("Stat of what the misses loaded", 1, map[string]int{"get": 1}, 0, func() error {
		_, _, err := c.Stat(0, paths[0])
		return err
	})
	for _, p := range append([]string{"/w/f"}, paths...) {
		if ent := mustEntry(t, e.region, p, "loaded"); ent.Dirty || ent.Stat.Type != fsapi.TypeFile {
			t.Fatalf("%s loaded as %+v, want a clean file", p, ent)
		}
	}
	if got, want := e.region.Stats().CacheWarms, int64(2+len(paths)); got != want {
		t.Fatalf("CacheWarms = %d, want %d: the Stat's add, the write's and the StatMulti's %d", got, want, len(paths))
	}
}

// TestOwnerLoadErrorIsAnAnswer: a DFS error the owner's load meets travels
// back as the key's status inside a good reply, so the reader answers with
// it at once — one cache round trip, no DFS read of its own. An owner that
// cannot be reached is the other case: the get fails, and the reader asks
// the DFS itself, storing nothing — one cache round trip all the same.
func TestOwnerLoadErrorIsAnAnswer(t *testing.T) {
	e := countedEnv(t, 2, nil)
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Create(0, "/w/f", 0o666); err != nil {
		t.Fatal(err)
	}
	c := e.client(t, "node0")
	own := c.backend.(*statCounter)

	e.dfs.KillShard(0) // the MDS is gone: every load fails with ErrClosed
	if _, _, err := c.Stat(0, "/w/f"); !errors.Is(err, fsapi.ErrClosed) {
		t.Fatalf("Stat with the MDS dead: %v, want ErrClosed", err)
	}
	if rpcs, reads := c.CacheRPCs(), own.stats.Load(); rpcs != 1 || reads != 0 {
		t.Fatalf("MDS dead: %d cache RPCs and %d DFS reads by the client, want 1 and 0", rpcs, reads)
	}
	e.dfs.RecoverShard(0)

	e.bus.Unregister(e.region.Ring().Lookup("/w/f"))
	if _, _, err := c.Stat(0, "/w/f"); err != nil {
		t.Fatalf("owner dead: %v, want the DFS's answer", err)
	}
	if rpcs, reads := c.CacheRPCs(), own.stats.Load(); rpcs != 2 || reads != 1 {
		t.Fatalf("owner dead: %d cache RPCs and %d DFS reads by the client in all, want 2 and 1", rpcs, reads)
	}
}

// TestLostAddReadsTheWinner: a create lands on the key between a load's
// DFS read and its add. The add is lost, and the read answers with the
// entry that won — the acked create — not with the older stat the DFS
// gave: a reader never goes back behind what the cache already holds. For
// a Stat, whose owner loads, and a StatMulti, whose client does, alike.
func TestLostAddReadsTheWinner(t *testing.T) {
	var e *env
	var w *Client
	var race atomic.Value // the path whose load a create overtakes, once
	e = newEnvDeps(t, 2, nil, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &statCounter{Backend: inner(node), after: func(p string) {
				if race.CompareAndSwap(p, "") {
					if _, err := w.Create(0, p, 0o600); err != nil {
						t.Errorf("create between the read and the add: %v", err)
					}
				}
			}}
		}
	})
	admin := e.dfs.NewClient("admin", rootCred, 0, 0)
	for _, p := range []string{"/w/a", "/w/b"} {
		if _, err := admin.Create(0, p, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	c, w := e.client(t, "node0"), e.client(t, "node1")
	for _, multi := range []bool{false, true} {
		p := map[bool]string{false: "/w/a", true: "/w/b"}[multi]
		// The commit processes hold still until the checks are done, so
		// the create's entry is still dirty when they look.
		release := holdCommits(t, e.region)
		race.Store(p)
		var st fsapi.Stat
		var err error
		if multi {
			var res []fsapi.StatResult
			if res, _, err = c.StatMulti(0, []string{p}); err == nil {
				st, err = res[0].Stat, res[0].Err
			}
		} else {
			st, _, err = c.Stat(0, p)
		}
		if race.Load() != "" {
			t.Fatalf("%s: the create never overtook the load", p)
		}
		if err != nil || st.Mode != 0o600 {
			t.Fatalf("%s: read %+v, %v; want the create's mode 0600, not the DFS's 0666", p, st, err)
		}
		if ent := mustEntry(t, e.region, p, "the winner"); !ent.Dirty || ent.Stat.Mode != 0o600 {
			t.Fatalf("%s: cache holds %+v, want the create's dirty entry", p, ent)
		}
		release()
	}
}
