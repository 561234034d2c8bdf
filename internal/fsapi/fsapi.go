// Package fsapi holds the file-system types shared by every metadata
// service in this repository: the BeeGFS-like DFS (internal/dfs), the
// IndexFS-like middleware (internal/indexfs) and the Pacon core
// (internal/core). Keeping one Stat/Mode/error vocabulary lets the bench
// harness drive all three systems through the same workload code.
package fsapi

import (
	"fmt"
	"time"
)

// FileType distinguishes regular files from directories. The paper's
// metadata operations (Table I) only concern these two kinds.
type FileType uint8

const (
	// TypeFile is a regular file.
	TypeFile FileType = iota
	// TypeDir is a directory.
	TypeDir
)

// String implements fmt.Stringer.
func (t FileType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	default:
		return fmt.Sprintf("filetype(%d)", uint8(t))
	}
}

// Mode is a POSIX-style permission bit set (lower 9 bits: rwxrwxrwx).
type Mode uint16

// ModeDefaultDir is the mode Pacon assigns to directories when the
// application does not predefine permissions: full access for the
// creator (paper §III.C "default permission settings similar to Linux").
const ModeDefaultDir Mode = 0o755

// String renders the mode in octal, e.g. "0755".
func (m Mode) String() string { return fmt.Sprintf("0%o", uint16(m)) }

// AccessClass selects which permission triplet applies for a credential.
type AccessClass uint8

// Access classes in precedence order.
const (
	ClassUser AccessClass = iota
	ClassGroup
	ClassOther
)

// AccessWant is a requested access kind for permission checks.
type AccessWant uint8

// Requested access kinds.
const (
	WantRead AccessWant = 1 << iota
	WantWrite
	WantExec
)

// Allows reports whether mode m grants access "want" to class "class".
func (m Mode) Allows(class AccessClass, want AccessWant) bool {
	var shift uint
	switch class {
	case ClassUser:
		shift = 6
	case ClassGroup:
		shift = 3
	default:
		shift = 0
	}
	triplet := (uint16(m) >> shift) & 0o7
	if want&WantRead != 0 && triplet&0o4 == 0 {
		return false
	}
	if want&WantWrite != 0 && triplet&0o2 == 0 {
		return false
	}
	if want&WantExec != 0 && triplet&0o1 == 0 {
		return false
	}
	return true
}

// Cred identifies the system user an HPC application runs as. The paper
// assumes one system user per application (§II.A), so a Cred is carried by
// every client and checked against Stat.UID/GID.
type Cred struct {
	UID uint32
	GID uint32
}

// ClassFor returns the access class cred falls into for an object owned by
// (uid, gid).
func (c Cred) ClassFor(uid, gid uint32) AccessClass {
	switch {
	case c.UID == uid:
		return ClassUser
	case c.GID == gid:
		return ClassGroup
	default:
		return ClassOther
	}
}

// Stat is the metadata record for a file or directory. It is the value
// stored (encoded) in the Pacon distributed cache, in the IndexFS servers'
// tables and in the DFS namespace tree.
type Stat struct {
	Type  FileType
	Mode  Mode
	UID   uint32
	GID   uint32
	Size  int64
	Nlink uint32
	// Mtime/Ctime are wall-clock stamps in nanoseconds. They are carried
	// for fidelity; experiments use virtual time separately.
	Mtime int64
	Ctime int64
	// Inline holds small-file data stored together with the metadata
	// (paper §III.D.2: files at or below the threshold keep their data in
	// the same KV value so one request returns both).
	Inline []byte
}

// IsDir reports whether the stat describes a directory.
func (s Stat) IsDir() bool { return s.Type == TypeDir }

// NewDirStat builds a directory Stat with the supplied ownership.
func NewDirStat(cred Cred, mode Mode) Stat {
	now := time.Now().UnixNano()
	return Stat{Type: TypeDir, Mode: mode, UID: cred.UID, GID: cred.GID, Nlink: 2, Mtime: now, Ctime: now}
}

// NewFileStat builds a regular-file Stat with the supplied ownership.
func NewFileStat(cred Cred, mode Mode) Stat {
	now := time.Now().UnixNano()
	return Stat{Type: TypeFile, Mode: mode, UID: cred.UID, GID: cred.GID, Nlink: 1, Mtime: now, Ctime: now}
}

// DirEntry is one row of a readdir result.
type DirEntry struct {
	Name string
	Type FileType
}
