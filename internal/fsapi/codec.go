package fsapi

import (
	"bytes"

	"pacon/internal/wire"
)

// EncodeStat appends a Stat's wire form to e. Layout is shared by the
// DFS, IndexFS and the Pacon cache values so a record can migrate
// between systems without translation.
func EncodeStat(e *wire.Encoder, s Stat) {
	e.Byte(byte(s.Type))
	e.Uint16(uint16(s.Mode))
	e.Uint32(s.UID)
	e.Uint32(s.GID)
	e.Int64(s.Size)
	e.Uint32(s.Nlink)
	e.Int64(s.Mtime)
	e.Int64(s.Ctime)
	e.Blob(s.Inline)
}

// DecodeStat reads a Stat written by EncodeStat.
func DecodeStat(d *wire.Decoder) Stat {
	s := DecodeStatView(d)
	s.Inline = bytes.Clone(s.Inline)
	return s
}

// DecodeStatView is DecodeStat with Inline a view of d's buffer, valid for
// as long as the buffer is.
func DecodeStatView(d *wire.Decoder) Stat {
	return Stat{
		Type:   FileType(d.Byte()),
		Mode:   Mode(d.Uint16()),
		UID:    d.Uint32(),
		GID:    d.Uint32(),
		Size:   d.Int64(),
		Nlink:  d.Uint32(),
		Mtime:  d.Int64(),
		Ctime:  d.Int64(),
		Inline: d.BlobView(),
	}
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
