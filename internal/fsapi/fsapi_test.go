package fsapi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pacon/internal/wire"
)

func TestModeAllows(t *testing.T) {
	m := Mode(0o754) // user rwx, group r-x, other r--
	cases := []struct {
		class AccessClass
		want  AccessWant
		ok    bool
	}{
		{ClassUser, WantRead | WantWrite | WantExec, true},
		{ClassGroup, WantRead | WantExec, true},
		{ClassGroup, WantWrite, false},
		{ClassOther, WantRead, true},
		{ClassOther, WantExec, false},
		{ClassOther, WantRead | WantWrite, false},
	}
	for _, c := range cases {
		if got := m.Allows(c.class, c.want); got != c.ok {
			t.Errorf("Allows(%v, %v) = %v, want %v", c.class, c.want, got, c.ok)
		}
	}
}

func TestCredClassFor(t *testing.T) {
	c := Cred{UID: 10, GID: 20}
	if c.ClassFor(10, 99) != ClassUser {
		t.Fatal("uid match must be user class")
	}
	if c.ClassFor(99, 20) != ClassGroup {
		t.Fatal("gid match must be group class")
	}
	if c.ClassFor(99, 99) != ClassOther {
		t.Fatal("no match must be other class")
	}
}

func TestNewStatDefaults(t *testing.T) {
	cred := Cred{UID: 1, GID: 2}
	d := NewDirStat(cred, 0o755)
	if !d.IsDir() || d.UID != 1 || d.GID != 2 || d.Nlink != 2 || d.Mtime == 0 {
		t.Fatalf("dir stat = %+v", d)
	}
	f := NewFileStat(cred, 0o644)
	if f.IsDir() || f.Nlink != 1 {
		t.Fatalf("file stat = %+v", f)
	}
}

func TestStringers(t *testing.T) {
	if TypeFile.String() != "file" || TypeDir.String() != "dir" {
		t.Fatal("FileType.String wrong")
	}
	if FileType(9).String() == "" {
		t.Fatal("unknown type must still render")
	}
	if Mode(0o755).String() != "0755" {
		t.Fatalf("mode string = %s", Mode(0o755).String())
	}
}

func TestErrorCodesRoundTrip(t *testing.T) {
	sentinels := []error{
		nil, ErrNotExist, ErrExist, ErrNotDir, ErrIsDir, ErrNotEmpty,
		ErrPermission, ErrStale, ErrReadOnly, ErrOutOfSpace, ErrClosed, ErrTooLarge,
	}
	for _, err := range sentinels {
		code := CodeOf(err)
		back := ErrOf(code, "")
		if err == nil {
			if back != nil {
				t.Fatal("nil must round-trip to nil")
			}
			continue
		}
		if !errors.Is(back, err) {
			t.Fatalf("%v round-tripped to %v", err, back)
		}
	}
	// Wrapped errors map to their sentinel's code.
	wrapped := WrapPath("stat", "/x", ErrNotExist)
	if CodeOf(wrapped) != CodeNotExist {
		t.Fatal("wrapped error lost its code")
	}
	// Unknown errors keep their message through CodeOther.
	odd := errors.New("weird failure")
	if CodeOf(odd) != CodeOther {
		t.Fatal("unknown error must be CodeOther")
	}
	if got := ErrOf(CodeOther, "weird failure"); got.Error() != "weird failure" {
		t.Fatalf("detail lost: %v", got)
	}
	if got := ErrOf(CodeOther, ""); got == nil {
		t.Fatal("CodeOther with no detail must still be an error")
	}
}

func TestPathError(t *testing.T) {
	err := WrapPath("mkdir", "/a/b", ErrExist)
	if err.Error() != "mkdir /a/b: file exists" {
		t.Fatalf("message = %q", err.Error())
	}
	if !errors.Is(err, ErrExist) {
		t.Fatal("unwrap broken")
	}
	if WrapPath("op", "/p", nil) != nil {
		t.Fatal("nil must stay nil")
	}
}

func TestStatCodecRoundTrip(t *testing.T) {
	in := Stat{
		Type: TypeFile, Mode: 0o640, UID: 7, GID: 8,
		Size: 12345, Nlink: 3, Mtime: 111, Ctime: 222,
		Inline: []byte("inline-data"),
	}
	out, err := UnmarshalStat(MarshalStat(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Mode != in.Mode || out.Size != in.Size ||
		out.UID != in.UID || out.GID != in.GID || out.Nlink != in.Nlink ||
		out.Mtime != in.Mtime || out.Ctime != in.Ctime || string(out.Inline) != string(in.Inline) {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
}

func TestStatCodecProperty(t *testing.T) {
	roundTrips := func(in Stat) bool {
		out, err := UnmarshalStat(MarshalStat(in))
		return err == nil && out.Type == in.Type && out.Mode == in.Mode &&
			out.UID == in.UID && out.GID == in.GID && out.Size == in.Size &&
			out.Nlink == in.Nlink && out.Mtime == in.Mtime && out.Ctime == in.Ctime &&
			string(out.Inline) == string(in.Inline)
	}
	f := func(typ byte, mode uint16, uid, gid uint32, size int64, nlink uint32, mtime, ctime int64, inline []byte) bool {
		return roundTrips(Stat{Type: FileType(typ), Mode: Mode(mode), UID: uid, GID: gid,
			Size: size, Nlink: nlink, Mtime: mtime, Ctime: ctime, Inline: inline})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Every field at its edges, and Ctime−Mtime deltas that wrap.
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, mtime := range edges {
		for _, ctime := range edges {
			for _, size := range edges {
				in := Stat{Type: 0xFF, Mode: math.MaxUint16, UID: math.MaxUint32, GID: math.MaxUint32,
					Size: size, Nlink: math.MaxUint32, Mtime: mtime, Ctime: ctime}
				if !roundTrips(in) {
					t.Fatalf("%+v does not round-trip", in)
				}
			}
		}
	}
}

// TestStatCodecSize pins the layout's widths: a file's stat with a
// current-epoch Mtime equal to its Ctime, uid/gid 1000 and mode 0644 is 20
// bytes, all but Mtime's 8 as varints, and the zero stat is 16.
func TestStatCodecSize(t *testing.T) {
	st := NewFileStat(Cred{UID: 1000, GID: 1000}, 0o644)
	st.Size = 64
	if n := len(MarshalStat(st)); n != 20 {
		t.Fatalf("a loaded file's stat is %d bytes, want 20", n)
	}
	if n := len(MarshalStat(Stat{})); n != 16 {
		t.Fatalf("the zero stat is %d bytes, want 16", n)
	}
}

func TestStatCodecRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalStat([]byte{1, 2}); err == nil {
		t.Fatal("truncated stat must fail")
	}
	// Trailing junk is schema drift, not silently ignored.
	e := wire.NewEncoder(64)
	EncodeStat(e, Stat{})
	e.Byte(0xFF)
	if _, err := UnmarshalStat(e.Bytes()); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// A field wider than its type is refused, not truncated.
	for field, wide := range map[string]uint64{"mode": math.MaxUint16 + 1, "uid": math.MaxUint32 + 1,
		"gid": math.MaxUint32 + 1, "nlink": math.MaxUint32 + 1} {
		if _, err := UnmarshalStat(rawStat(field, wide)); !errors.Is(err, errStatField) {
			t.Errorf("%s of %d: %v, want %v", field, wide, err, errStatField)
		}
		if _, err := UnmarshalStat(rawStat(field, wide-1)); err != nil {
			t.Errorf("%s of %d: %v", field, wide-1, err)
		}
	}
}

// rawStat is a stat's wire form written field by field, with one of Mode,
// UID, GID or Nlink set to v however wide it is.
func rawStat(field string, v uint64) []byte {
	at := func(name string) uint64 {
		if name == field {
			return v
		}
		return 1
	}
	e := wire.NewEncoder(32)
	e.Byte(byte(TypeFile))
	e.Uvarint(at("mode"))
	e.Uvarint(at("uid"))
	e.Uvarint(at("gid"))
	e.Varint(64)
	e.Uvarint(at("nlink"))
	e.Int64(1)
	e.Varint(0)
	e.Blob(nil)
	return e.Bytes()
}

// FuzzStatCodec: whatever bytes arrive, UnmarshalStat answers with an
// error or a stat, never a panic; a stat it decodes re-encodes to bytes no
// longer than the input, which decode to it again and re-encode to
// themselves; and a Mode over 16 bits, or a UID, GID or Nlink over 32, is
// refused rather than truncated.
func FuzzStatCodec(f *testing.F) {
	for _, st := range []Stat{
		{},
		NewFileStat(Cred{UID: 1000, GID: 1000}, 0o644),
		NewDirStat(Cred{UID: 1 << 31, GID: 7}, 0o755),
		{Type: TypeFile, Size: -1, Nlink: math.MaxUint32, Mtime: math.MaxInt64, Ctime: math.MinInt64, Inline: []byte("ab")},
	} {
		raw := MarshalStat(st)
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	for _, field := range []string{"mode", "uid", "gid", "nlink"} {
		f.Add(rawStat(field, math.MaxUint32+1))
		f.Add(rawStat(field, math.MaxUint64))
	}
	f.Add([]byte{0, 0x80, 0x80, 0x00}) // a non-minimal mode, then nothing
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The width fields as a plain reader sees them.
		d := wire.NewDecoder(raw)
		d.Byte()
		mode, uid, gid := d.Uvarint(), d.Uvarint(), d.Uvarint()
		d.Varint()
		nlink := d.Uvarint()
		wide := d.Err() == nil && (mode > math.MaxUint16 || max(uid, gid, nlink) > math.MaxUint32)

		st, err := UnmarshalStat(raw)
		switch {
		case wide && !errors.Is(err, errStatField):
			t.Fatalf("%x: a wide field decoded with %v to %+v", raw, err, st)
		case err != nil:
			return
		}
		enc := MarshalStat(st)
		again, err := UnmarshalStat(enc)
		if err != nil || !bytes.Equal(MarshalStat(again), enc) {
			t.Fatalf("%x re-encodes to %x, which decodes with %v to %+v", raw, enc, err, again)
		}
		if len(enc) > len(raw) {
			t.Fatalf("%x re-encodes longer, to %x", raw, enc)
		}
	})
}

// BenchmarkStatCodec is one stat through the codec and back, as a cache
// value is: EncodeStat into a reused buffer, DecodeStatView out of it. The
// stat is a loaded file's (uid/gid 1000, mode 0644, 64 bytes, no inline
// bytes). It allocates nothing.
func BenchmarkStatCodec(b *testing.B) {
	st := NewFileStat(Cred{UID: 1000, GID: 1000}, 0o644)
	st.Size = 64
	e := wire.NewEncoder(64)
	var d wire.Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		EncodeStat(e, st)
		d.Reset(e.Bytes())
		if got := DecodeStatView(&d); got.Size != st.Size || d.Finish() != nil {
			b.Fatal(got, d.Err())
		}
	}
}

func TestDirEntryUsage(t *testing.T) {
	ents := []DirEntry{{Name: "a", Type: TypeDir}, {Name: "b", Type: TypeFile}}
	if fmt.Sprintf("%s/%s", ents[0].Name, ents[0].Type) != "a/dir" {
		t.Fatal("DirEntry fields wrong")
	}
}
