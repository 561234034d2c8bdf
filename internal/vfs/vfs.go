// Package vfs is a minimal virtual file backend used by the LSM store
// (WAL and SSTables) and, through it, the IndexFS servers; the DFS data
// servers and Pacon's fsync spill keep their bytes in maps of their own.
// Two implementations exist: MemFS (tests and benches — real bytes, no
// disk) and OSFS (examples and durability tests — real files under a
// root directory).
package vfs

import (
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pacon/internal/fsapi"
)

// File is an open backend file. Implementations are safe for concurrent
// ReadAt; Write/Truncate require external serialization (the LSM store
// single-writes its WAL and tables).
type File interface {
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes buffered data to the backing store.
	Sync() error
	// Size returns the current file length.
	Size() (int64, error)
	// Truncate resizes the file.
	Truncate(size int64) error
}

// FS is the backend factory.
type FS interface {
	// Create opens a new file for writing, truncating any existing one.
	Create(name string) (File, error)
	// Open opens an existing file.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file.
	Rename(oldName, newName string) error
	// List returns the names (not paths) of files whose name starts with
	// prefix, in sorted order.
	List(prefix string) ([]string, error)
}

// --- In-memory implementation ---

// MemFS is an in-memory FS. Safe for concurrent use.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memNode
}

// NewMemFS returns an empty in-memory backend.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memNode)} }

type memNode struct {
	mu   sync.RWMutex
	data []byte
}

// memFile is an open handle onto a memNode.
type memFile struct {
	node   *memNode
	closed bool
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := &memNode{}
	m.files[name] = n
	return &memFile{node: n}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.RLock()
	n := m.files[name]
	m.mu.RUnlock()
	if n == nil {
		return nil, fsapi.WrapPath("open", name, fsapi.ErrNotExist)
	}
	return &memFile{node: n}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fsapi.WrapPath("remove", name, fsapi.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldName]
	if !ok {
		return fsapi.WrapPath("rename", oldName, fsapi.ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = n
	return nil
}

// List implements FS.
func (m *MemFS) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// TotalBytes reports the sum of file sizes, for cache-pressure tests.
func (m *MemFS) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, n := range m.files {
		n.mu.RLock()
		total += int64(len(n.data))
		n.mu.RUnlock()
	}
	return total
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fsapi.WrapPath("readat", "memfile", fsapi.ErrNotExist)
	}
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, fsapi.ErrClosed
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return int64(len(f.node.data)), nil
}

func (f *memFile) Truncate(size int64) error {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	cur := int64(len(f.node.data))
	switch {
	case size < cur:
		f.node.data = f.node.data[:size]
	case size > cur:
		f.node.data = append(f.node.data, make([]byte, size-cur)...)
	}
	return nil
}

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// --- OS implementation ---

// OSFS stores files under a root directory on the host file system.
type OSFS struct{ root string }

// NewOSFS returns a backend rooted at dir, creating it if needed.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OSFS{root: dir}, nil
}

func (o *OSFS) join(name string) string {
	// Backend names are flat identifiers; keep them inside root.
	return filepath.Join(o.root, path.Clean("/"+name))
}

type osFile struct{ f *os.File }

// Create implements FS.
func (o *OSFS) Create(name string) (File, error) {
	p := o.join(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Open implements FS.
func (o *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(o.join(name), os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fsapi.WrapPath("open", name, fsapi.ErrNotExist)
		}
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	err := os.Remove(o.join(name))
	if os.IsNotExist(err) {
		return fsapi.WrapPath("remove", name, fsapi.ErrNotExist)
	}
	return err
}

// Rename implements FS.
func (o *OSFS) Rename(oldName, newName string) error {
	return os.Rename(o.join(oldName), o.join(newName))
}

// List implements FS.
func (o *OSFS) List(prefix string) ([]string, error) {
	entries, err := os.ReadDir(o.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *osFile) Write(p []byte) (int, error)             { return f.f.Write(p) }
func (f *osFile) Sync() error                             { return f.f.Sync() }
func (f *osFile) Truncate(size int64) error               { return f.f.Truncate(size) }
func (f *osFile) Close() error                            { return f.f.Close() }

func (f *osFile) Size() (int64, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
