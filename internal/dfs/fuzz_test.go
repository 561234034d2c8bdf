package dfs

import (
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
	"pacon/internal/wire"
)

// FuzzMDSHandlers feeds raw bytes to every endpoint the MDS registers —
// the frames a peer controls — against a small populated tree. Each must
// return an error or a well-formed reply without panicking; a corrupt
// count must be rejected before anything is sized by it (the allocation
// check is the fuzzer's own memory limit: a handler that trusted a 2^60
// count would die); and a frame that fails to decode — refused before
// any service time is charged — must leave the tree and the intent table
// as they were: every handler decodes the whole frame before it touches
// anything.
func FuzzMDSHandlers(f *testing.F) {
	frame := func(fill func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		fill(e)
		return e.Bytes()
	}
	cred := func(e *wire.Encoder) { e.Uint32(appCred.UID); e.Uint32(appCred.GID) }
	file := fsapi.NewFileStat(appCred, 0o644)
	// One valid frame per endpoint, and each cut short; every frame goes
	// to every endpoint, so each is mostly somebody else's garbage.
	valid := [][]byte{
		frame(func(e *wire.Encoder) { e.String("/w/d/f") }),                        // lookup, readdir
		frame(func(e *wire.Encoder) { e.Strings([]string{"/w/d", "/w/missing"}) }), // stat_batch
		frame(func(e *wire.Encoder) { // apply_batch: one op of every kind
			cred(e)
			e.Uvarint(5)
			for kind, p := range []string{"/w/new", "/w/newdir", "/w/d/f", "/w/g", "/w/empty"} {
				e.Byte(byte(kind))
				e.Bool(kind == int(fsapi.BatchRemove))
				e.String(p)
				fsapi.EncodeStat(e, file)
			}
		}),
		frame(func(e *wire.Encoder) { e.String("/w/d"); e.String("/w/moved"); cred(e) }), // rename
		frame(func(e *wire.Encoder) { e.String("/w/d"); cred(e); e.Uvarint(0) }),         // rmtree, xfer_prepare, rmdir_prepare
		frame(func(e *wire.Encoder) { e.String("/w/empty"); cred(e); e.Uvarint(7) }),
		frame(func(e *wire.Encoder) { // xfer_apply
			e.String("/w/in")
			cred(e)
			e.Uvarint(2)
			e.String("")
			fsapi.EncodeStat(e, fsapi.NewDirStat(appCred, 0o755))
			e.Uint64(0)
			e.String("/leaf")
			fsapi.EncodeStat(e, file)
			e.Uint64(7)
		}),
		frame(func(e *wire.Encoder) { e.String("/w/d"); e.Uvarint(7) }), // intent_put, intent_finish, intent_del
	}
	for _, v := range valid {
		f.Add(v)
		f.Add(v[:len(v)-1])
		f.Add(v[:len(v)/2])
	}
	// Counts far beyond the frame, where apply_batch, stat_batch and
	// xfer_apply read theirs.
	f.Add(frame(func(e *wire.Encoder) { e.Uvarint(1 << 60) }))
	f.Add(frame(func(e *wire.Encoder) { cred(e); e.Uvarint(1 << 60) }))
	f.Add(frame(func(e *wire.Encoder) { e.String("/w/in"); cred(e); e.Uvarint(1 << 60) }))
	// A path nobody cleaned: the tree cleans what it is handed, so what a
	// walk visits is shorter than what the frame named.
	f.Add(frame(func(e *wire.Encoder) { e.String("/w/d/"); cred(e); e.Uvarint(7) }))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, method := range mdsMethods {
			// A fresh tree per endpoint: what one does with the frame must
			// not hide it from the next.
			m := newMDS("fuzz/mds", vclock.Default(), rootCred, 0)
			tree := m.Tree()
			for _, d := range []string{"/w", "/w/d", "/w/d/sub", "/w/empty"} {
				if err := tree.Mkdir(d, fsapi.NewDirStat(appCred, 0o777)); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range []string{"/w/d/f", "/w/d/sub/leaf", "/w/g"} {
				if err := tree.Create(p, file); err != nil {
					t.Fatal(err)
				}
			}
			bus := rpc.NewBus()
			bus.Register("fuzz/mds", m.Service())
			caller := rpc.NewCaller(bus, vclock.Default(), "fuzz")
			before, intents, served := dumpTree(t, m), m.intentN.Load(), m.Resource().Ops()
			_, resp, err := caller.Call("fuzz/mds", method, 0, body)
			if err != nil {
				if resp != nil {
					t.Fatalf("%s: error %v with a %d-byte reply", method, err, len(resp))
				}
				if m.Resource().Ops() == served && (dumpTree(t, m) != before || m.intentN.Load() != intents) {
					t.Fatalf("%s refused the frame undecoded (%v) yet changed the tree or the intents:\n%s--- now, %d intent(s)\n%s", method, err, before, m.intentN.Load(), dumpTree(t, m))
				}
				continue
			}
			// A reply lists what the request named or what the tree holds,
			// and the tree only grows by what a request carried.
			if len(resp) > 128*len(body)+(4<<10) {
				t.Fatalf("%s: %d-byte reply to a %d-byte request", method, len(resp), len(body))
			}
			d := wire.NewDecoder(resp)
			switch method {
			case "lookup":
				fsapi.DecodeStat(d)
				d.Uint64()
			case "stat_batch":
				for n := d.Count(); n > 0 && d.Err() == nil; n-- {
					if d.Byte() == fsapi.CodeOK {
						fsapi.DecodeStat(d)
					} else {
						_ = d.String()
					}
				}
			case "apply_batch":
				// The ops' kinds say which results carry a size: read them
				// back off the request, which was accepted whole.
				req := wire.NewDecoder(body)
				req.Uint32()
				req.Uint32()
				req.Count()
				for n := d.Count(); n > 0 && d.Err() == nil; n-- {
					kind := fsapi.BatchKind(req.Byte())
					req.Bool()
					_ = req.String()
					fsapi.DecodeStat(req)
					if d.Byte() != fsapi.CodeOK {
						_ = d.String()
						continue
					}
					_ = d.String()
					d.Uint64()
					if kind == fsapi.BatchRemove {
						d.Uvarint()
					}
				}
			case "rmtree":
				d.Strings()
				decodeInodes(d, nil)
			case "readdir":
				_, err = decodeDirEntries(resp)
				d = wire.NewDecoder(nil)
			case "xfer_prepare":
				for n := d.Count(); n > 0 && d.Err() == nil; n-- {
					_ = d.String()
					fsapi.DecodeStat(d)
					d.Uint64()
				}
			}
			// Every other endpoint answers with an empty reply.
			if ferr := d.Finish(); err != nil || ferr != nil {
				t.Fatalf("%s: malformed %d-byte reply: %v %v", method, len(resp), err, ferr)
			}
		}
	})
}

// dataMethods is every endpoint DataServer.Service registers.
var dataMethods = []string{"write_multi", "read", "drop_multi"}

// FuzzDataServerHandlers feeds raw bytes to every endpoint the data
// server registers, against a server holding one small file. Each must
// return an error or a well-formed reply without panicking. A refused
// frame leaves the chunks as they were (write_multi decodes and checks
// the whole frame before it stores anything), and an accepted one grows
// them by no more than it could address: an entry cannot reach past its
// chunk, so what a frame makes resident is bounded by one chunk for each
// entry it had room to carry — not by an offset it made up, which is
// what the fuzzer's own memory limit would otherwise find.
func FuzzDataServerHandlers(f *testing.F) {
	one := writeFrame(writeEntry{ino: 1, data: []byte("hello")})
	three := writeFrame(
		writeEntry{ino: 2, data: []byte("aaaa")},
		writeEntry{ino: 1, chunk: 3, inOff: 100, data: []byte("sparse")},
		writeEntry{ino: 3, inOff: ChunkSize - 2, data: []byte("zz")},
	)
	read := func(off, n uint32) []byte {
		e := wire.NewEncoder(32)
		e.Uint64(1)
		e.Int64(0)
		e.Uint32(off)
		e.Uint32(n)
		return e.Bytes()
	}
	for _, v := range [][]byte{one, three, read(1, 3), read(0, 1<<32-1), dropFrame(1), dropFrame(2, 1, 1)} {
		f.Add(v)
		f.Add(v[:len(v)-1])
		f.Add(v[:len(v)/2])
	}
	huge := wire.NewEncoder(16)
	huge.Uvarint(1 << 60)
	f.Add(huge.Bytes())
	// A count beyond what the frame carries, and a count whose uvarint is
	// cut off mid-number.
	f.Add(append(dropFrame(1)[:0:0], 0x05, 1, 0, 0, 0, 0, 0, 0, 0))
	f.Add([]byte{0x80, 0x80})
	f.Add(writeFrame(writeEntry{ino: 1, inOff: ChunkSize, data: []byte("x")}))
	f.Add(writeFrame(writeEntry{ino: 1, inOff: 1<<32 - 1, data: []byte("x")}))
	f.Add(writeFrame(writeEntry{ino: 1, chunk: -1 << 63, data: []byte("x")}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	// The smallest entry: an inode, a chunk, an offset, an empty blob.
	const minEntry = 8 + 8 + 4 + 1
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, method := range dataMethods {
			s := NewDataServer("fuzz/data", vclock.Default())
			bus := rpc.NewBus()
			bus.Register("fuzz/data", s.Service())
			caller := rpc.NewCaller(bus, vclock.Default(), "fuzz")
			if _, _, err := caller.Call("fuzz/data", "write_multi", 0, one); err != nil {
				t.Fatal(err)
			}
			before, chunks, served := residentBytes(s), s.ChunkCount(), s.res.Ops()
			_, resp, err := caller.Call("fuzz/data", method, 0, body)
			after := residentBytes(s)
			if err != nil {
				if resp != nil {
					t.Fatalf("%s: error %v with a %d-byte reply", method, err, len(resp))
				}
				if after != before || s.ChunkCount() != chunks || s.res.Ops() != served {
					t.Fatalf("%s refused the frame (%v) yet %d → %d bytes resident, %d → %d chunks, %d device ops",
						method, err, before, after, chunks, s.ChunkCount(), s.res.Ops()-served)
				}
				continue
			}
			if limit := before + len(body)/minEntry*ChunkSize; after > limit {
				t.Fatalf("%s: a %d-byte frame left %d bytes resident, limit %d", method, len(body), after, limit)
			}
			d := wire.NewDecoder(resp)
			if method == "read" {
				if got := d.BlobView(); len(got) > before {
					t.Fatalf("read returned %d bytes of a %d-byte file", len(got), before)
				}
			}
			// Every other endpoint answers with an empty reply.
			if ferr := d.Finish(); ferr != nil {
				t.Fatalf("%s: malformed %d-byte reply: %v", method, len(resp), ferr)
			}
		}
	})
}
