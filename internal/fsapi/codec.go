package fsapi

import (
	"bytes"
	"errors"
	"math"

	"pacon/internal/wire"
)

// errStatField reports a stat whose Mode, UID, GID or Nlink is wider than
// its field: corrupt input, refused rather than truncated.
var errStatField = errors.New("fsapi: stat field out of range")

// EncodeStat appends a Stat's wire form to e. Layout is shared by the
// DFS, IndexFS and the Pacon cache values so a record can migrate
// between systems without translation. It is compact, because a cache
// bounded in bytes holds as many entries as fit: Type is one byte; Mode,
// UID, GID and Nlink are uvarints; Size is a zigzag varint; Mtime is a
// fixed 8 bytes, since wall-clock nanoseconds would take 9 as a varint;
// Ctime is a zigzag delta from Mtime (wrapping, so every pair round-trips),
// one byte when the two are equal; Inline is a length-prefixed blob. A
// file's stat with no inline bytes is about 20 bytes.
func EncodeStat(e *wire.Encoder, s Stat) {
	e.Byte(byte(s.Type))
	e.Uvarint(uint64(s.Mode))
	e.Uvarint(uint64(s.UID))
	e.Uvarint(uint64(s.GID))
	e.Varint(s.Size)
	e.Uvarint(uint64(s.Nlink))
	e.Int64(s.Mtime)
	e.Varint(s.Ctime - s.Mtime)
	e.Blob(s.Inline)
}

// DecodeStat reads a Stat written by EncodeStat.
func DecodeStat(d *wire.Decoder) Stat {
	s := DecodeStatView(d)
	s.Inline = bytes.Clone(s.Inline)
	return s
}

// DecodeStatView is DecodeStat with Inline a view of d's buffer, valid for
// as long as the buffer is. A Mode, UID, GID or Nlink wider than its
// field fails d with errStatField.
func DecodeStatView(d *wire.Decoder) Stat {
	s := Stat{
		Type:  FileType(d.Byte()),
		Mode:  Mode(uvarintUpTo(d, math.MaxUint16)),
		UID:   uint32(uvarintUpTo(d, math.MaxUint32)),
		GID:   uint32(uvarintUpTo(d, math.MaxUint32)),
		Size:  d.Varint(),
		Nlink: uint32(uvarintUpTo(d, math.MaxUint32)),
		Mtime: d.Int64(),
	}
	s.Ctime = s.Mtime + d.Varint()
	s.Inline = d.BlobView()
	return s
}

// uvarintUpTo reads a uvarint no greater than limit.
func uvarintUpTo(d *wire.Decoder, limit uint64) uint64 {
	v := d.Uvarint()
	if v > limit {
		d.Fail(errStatField)
		return 0
	}
	return v
}

// MarshalStat returns a Stat's standalone wire form.
func MarshalStat(s Stat) []byte {
	e := wire.NewEncoder(64 + len(s.Inline))
	EncodeStat(e, s)
	return e.Bytes()
}

// UnmarshalStat parses a standalone Stat.
func UnmarshalStat(b []byte) (Stat, error) {
	d := wire.NewDecoder(b)
	s := DecodeStat(d)
	if err := d.Finish(); err != nil {
		return Stat{}, err
	}
	return s, nil
}
