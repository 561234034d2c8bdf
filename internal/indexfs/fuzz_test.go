package indexfs

import (
	"fmt"
	"runtime"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// serverMethods is every endpoint Server.Service registers.
var serverMethods = []string{"lookup", "create", "mkdir", "remove", "removedir", "empty", "readdir", "bulk"}

// fuzzServer is a one-server deployment holding /w, /w/d, /w/d/f and
// /w/empty, and the directory IDs of /w, /w/d and /w/empty.
func fuzzServer(t testing.TB) (*Cluster, [3]DirID) {
	c := NewCluster(rpc.NewBus(), vclock.Default(), []string{"fuzz"}, ClusterConfig{})
	cl := c.NewClient("fuzz", appCred, 0, false)
	for _, d := range []string{"/w", "/w/d", "/w/empty"} {
		if _, err := cl.Mkdir(0, d, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Create(0, "/w/d/f", 0o644); err != nil {
		t.Fatal(err)
	}
	rows := c.Servers[0].rows
	w, _ := rows.get(RootDirID, "w")
	d, _ := rows.get(w.child, "d")
	empty, _ := rows.get(w.child, "empty")
	return c, [3]DirID{w.child, d.child, empty.child}
}

// dump renders the table; fmt prints maps in key order.
func (t *table) dump() (string, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, rows := range t.dirs {
		n += len(rows)
	}
	return fmt.Sprint(t.dirs, t.lastDir), n
}

// FuzzIndexFSHandlers feeds raw bytes to every endpoint the server
// registers, against a small populated table. Each must return an error
// or a well-formed reply without panicking. A count is checked against
// the frame before anything is sized by it: the call's allocations are
// bounded by a multiple of the frame, so a handler that trusted a peer's
// count (a 6-byte bulk frame once asked for 2^40 rows) fails here rather
// than only under the fuzzer's memory limit. A frame refused before any
// service time is charged leaves the table as it was — every handler
// decodes the whole frame before it touches a row — and an accepted one
// adds no more rows than it carried.
func FuzzIndexFSHandlers(f *testing.F) {
	_, ids := fuzzServer(f)
	w, d, empty := ids[0], ids[1], ids[2]
	frame := func(fill func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		fill(e)
		return e.Bytes()
	}
	file := fsapi.NewFileStat(appCred, 0o644)
	// One valid frame per endpoint shape, and each cut short; every frame
	// goes to every endpoint, so each is mostly somebody else's garbage.
	valid := [][]byte{
		frame(func(e *wire.Encoder) { e.Uint64(d); e.String("f") }),                              // lookup, remove
		frame(func(e *wire.Encoder) { e.Uint64(w); e.String("empty") }),                          // removedir
		frame(func(e *wire.Encoder) { e.Uint64(w); e.String("new"); fsapi.EncodeStat(e, file) }), // create, mkdir
		frame(func(e *wire.Encoder) { e.Uint64(empty) }),                                         // empty, readdir
		frame(func(e *wire.Encoder) { // bulk: a row over an existing key and a new one
			e.Uvarint(2)
			encodeBulkRow(e, bulkRow{dir: d, name: "f", row: row{st: file}})
			encodeBulkRow(e, bulkRow{dir: w, name: "g", row: row{st: file}})
		}),
	}
	for _, v := range valid {
		f.Add(v)
		f.Add(v[:len(v)-1])
		f.Add(v[:len(v)/2])
	}
	// Counts far beyond the frame: the 6-byte bulk frame that ran the
	// server out of memory, and one past any int.
	f.Add(frame(func(e *wire.Encoder) { e.Uvarint(1 << 40) }))
	f.Add(frame(func(e *wire.Encoder) { e.Uvarint(1 << 60) }))
	// A bulk key too short to hold a directory ID.
	f.Add(frame(func(e *wire.Encoder) { e.Uvarint(1); e.Blob([]byte("w")); e.Blob(fsapi.MarshalStat(file)) }))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	// The smallest bulk row: a 9-byte key and a stat with no inline bytes
	// and a one-byte child, each behind a one-byte length.
	minRow := 1 + 9 + 1 + len(fsapi.MarshalStat(fsapi.Stat{})) + 1
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, method := range serverMethods {
			// A fresh server per endpoint: what one does with the frame
			// must not hide it from the next.
			c, _ := fuzzServer(t)
			s := c.Servers[0]
			caller := rpc.NewCaller(c.Net, vclock.Default(), "fuzz")
			before, rows := s.rows.dump()
			served := s.res.Ops()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, resp, err := caller.Call(c.Addrs[0], method, 0, body)
			runtime.ReadMemStats(&m1)
			if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(256*len(body)+64<<10); alloc > limit {
				t.Fatalf("%s: a %d-byte frame allocated %d bytes, limit %d", method, len(body), alloc, limit)
			}
			after, grown := s.rows.dump()
			if err != nil {
				if resp != nil {
					t.Fatalf("%s: error %v with a %d-byte reply", method, err, len(resp))
				}
				if s.res.Ops() == served && after != before {
					t.Fatalf("%s refused the frame undecoded (%v) yet changed the table:\n%s\n--- now\n%s", method, err, before, after)
				}
				continue
			}
			if limit := rows + 1 + len(body)/minRow; grown > limit {
				t.Fatalf("%s: a %d-byte frame took the table from %d to %d rows", method, len(body), rows, grown)
			}
			r := wire.NewDecoder(resp)
			switch method {
			case "lookup":
				fsapi.DecodeStat(r)
				r.Uvarint()
				r.Int64()
			case "create", "mkdir":
				r.Uvarint()
			case "empty":
				r.Bool()
			case "readdir":
				for n := r.Count(); n > 0 && r.Err() == nil; n-- {
					_ = r.String()
					r.Byte()
				}
			}
			// remove, removedir and bulk answer with an empty reply.
			if ferr := r.Finish(); ferr != nil {
				t.Fatalf("%s: malformed %d-byte reply: %v", method, len(resp), ferr)
			}
		}
	})
}
