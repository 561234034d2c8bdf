package namespace

import (
	"sort"
	"sync"

	"pacon/internal/fsapi"
)

// Tree is a concurrent in-memory namespace. All methods take cleaned or
// uncleaned paths (they clean internally) and enforce the namespace
// conventions, returning fsapi sentinel errors on violations.
//
// Every object has an inode number, drawn from the tree's counter when
// it is created and kept by a rename: the DFS keys a file's data chunks
// by it, so bytes never move with a name. A number handed in (Add) is
// kept as it is — the way a subtree moving between two trees keeps its
// numbers.
type Tree struct {
	mu      sync.RWMutex
	root    *node
	nextIno uint64 // the number the next created object draws
}

// node is 56 bytes: the stat less its inline bytes, which a tree never
// holds (a DFS keeps file bytes on its data servers), the inode number
// and the children.
type node struct {
	meta     meta
	ino      uint64
	children map[string]*node // nil for files
}

// meta is an fsapi.Stat without Inline, fields ordered to pack.
type meta struct {
	size, mtime, ctime int64
	uid, gid, nlink    uint32
	mode               fsapi.Mode
	typ                fsapi.FileType
}

func toMeta(st fsapi.Stat) meta {
	return meta{size: st.Size, mtime: st.Mtime, ctime: st.Ctime, uid: st.UID, gid: st.GID,
		nlink: st.Nlink, mode: st.Mode, typ: st.Type}
}

func (m meta) stat() fsapi.Stat {
	return fsapi.Stat{Type: m.typ, Mode: m.mode, UID: m.uid, GID: m.gid, Size: m.size,
		Nlink: m.nlink, Mtime: m.mtime, Ctime: m.ctime}
}

// Inode is an unlinked file's number and size: what a DFS must free on
// its data servers.
type Inode struct {
	Ino  uint64
	Size int64
}

// NewTree returns a namespace holding only the root directory, owned by
// cred.
func NewTree(cred fsapi.Cred) *Tree { return NewTreeFrom(cred, 1) }

// NewTreeFrom is NewTree numbering created objects from first on, so
// trees given disjoint ranges never hand out one number twice. The root
// is 0, the number no file has.
func NewTreeFrom(cred fsapi.Cred, first uint64) *Tree {
	return &Tree{nextIno: first, root: &node{
		meta:     toMeta(fsapi.NewDirStat(cred, fsapi.ModeDefaultDir)),
		children: make(map[string]*node),
	}}
}

// walk resolves a cleaned path to its node. Caller holds a lock.
func (t *Tree) walk(p string) (*node, error) {
	cur := t.root
	var werr error
	EachComponent(p, func(seg string) bool {
		if cur.children == nil {
			werr = fsapi.ErrNotDir
			return false
		}
		next, ok := cur.children[seg]
		if !ok {
			werr = fsapi.ErrNotExist
			return false
		}
		cur = next
		return true
	})
	if werr != nil {
		return nil, werr
	}
	return cur, nil
}

// walkParent resolves the parent directory of a cleaned path.
func (t *Tree) walkParent(p string) (*node, string, error) {
	dir, name := Split(p)
	if name == "" {
		return nil, "", fsapi.ErrExist // root always exists
	}
	parent, err := t.walk(dir)
	if err != nil {
		return nil, "", err
	}
	if parent.children == nil {
		return nil, "", fsapi.ErrNotDir
	}
	return parent, name, nil
}

// Lookup returns the stat of path.
func (t *Tree) Lookup(p string) (fsapi.Stat, error) {
	st, _, err := t.LookupIno(p)
	return st, err
}

// LookupIno returns the stat and inode number of path.
func (t *Tree) LookupIno(p string) (fsapi.Stat, uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.walk(Clean(p))
	if err != nil {
		return fsapi.Stat{}, 0, fsapi.WrapPath("lookup", p, err)
	}
	return n.meta.stat(), n.ino, nil
}

// Exists reports whether path resolves. It walks without Lookup's error
// wrap: every MDS create and mkdir asks, and "no" is the answer a create
// hopes for, so it must not cost an allocation.
func (t *Tree) Exists(p string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := t.walk(Clean(p))
	return err == nil
}

// Add creates a directory or a regular file, as stat.Type says, enforcing
// the create conventions. It numbers the object ino, or draws the tree's
// next number when ino is 0, and returns the number.
func (t *Tree) Add(p string, stat fsapi.Stat, ino uint64) (uint64, error) {
	op, isDir := "create", stat.IsDir()
	if isDir {
		op = "mkdir"
	}
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return 0, fsapi.WrapPath(op, p, err)
	}
	if _, exists := parent.children[name]; exists {
		return 0, fsapi.WrapPath(op, p, fsapi.ErrExist)
	}
	if ino == 0 {
		ino = t.nextIno
		t.nextIno++
	}
	n := &node{meta: toMeta(stat), ino: ino}
	if isDir {
		n.children = make(map[string]*node)
	}
	parent.children[name] = n
	return ino, nil
}

// Mkdir creates a directory. The stat's Type is forced to TypeDir.
func (t *Tree) Mkdir(p string, stat fsapi.Stat) error {
	stat.Type = fsapi.TypeDir
	_, err := t.Add(p, stat, 0)
	return err
}

// Create creates a regular file. The stat's Type is forced to TypeFile.
func (t *Tree) Create(p string, stat fsapi.Stat) error {
	stat.Type = fsapi.TypeFile
	_, err := t.Add(p, stat, 0)
	return err
}

// SetStat replaces the metadata of an existing object, preserving its
// type, and returns its inode number.
func (t *Tree) SetStat(p string, stat fsapi.Stat) (uint64, error) {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.walk(p)
	if err != nil {
		return 0, fsapi.WrapPath("setstat", p, err)
	}
	stat.Type = n.meta.typ
	n.meta = toMeta(stat)
	return n.ino, nil
}

// Remove unlinks a regular file and returns its inode.
func (t *Tree) Remove(p string) (Inode, error) {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return Inode{}, fsapi.WrapPath("remove", p, err)
	}
	n, ok := parent.children[name]
	if !ok {
		return Inode{}, fsapi.WrapPath("remove", p, fsapi.ErrNotExist)
	}
	if n.children != nil {
		return Inode{}, fsapi.WrapPath("remove", p, fsapi.ErrIsDir)
	}
	delete(parent.children, name)
	return Inode{Ino: n.ino, Size: n.meta.size}, nil
}

// Rmdir removes an empty directory.
func (t *Tree) Rmdir(p string) error {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return fsapi.WrapPath("rmdir", p, err)
	}
	n, ok := parent.children[name]
	if !ok {
		return fsapi.WrapPath("rmdir", p, fsapi.ErrNotExist)
	}
	if n.children == nil {
		return fsapi.WrapPath("rmdir", p, fsapi.ErrNotDir)
	}
	if len(n.children) > 0 {
		return fsapi.WrapPath("rmdir", p, fsapi.ErrNotEmpty)
	}
	delete(parent.children, name)
	return nil
}

// RemoveSubtree removes a directory and everything below it, returning
// the full paths removed (the recursive cleanup a Pacon rmdir performs
// on the DFS and mirrors into its cache) and the inodes of the removed
// files that held bytes. The path list includes p itself, deepest
// entries first.
func (t *Tree) RemoveSubtree(p string) ([]string, []Inode, error) {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return nil, nil, fsapi.WrapPath("rmdir", p, err)
	}
	n, ok := parent.children[name]
	if !ok {
		return nil, nil, fsapi.WrapPath("rmdir", p, fsapi.ErrNotExist)
	}
	if n.children == nil {
		return nil, nil, fsapi.WrapPath("rmdir", p, fsapi.ErrNotDir)
	}
	var removed []string
	var freed []Inode
	var visit func(path string, nd *node)
	visit = func(path string, nd *node) {
		if nd.children != nil {
			names := make([]string, 0, len(nd.children))
			for child := range nd.children {
				names = append(names, child)
			}
			sort.Strings(names)
			for _, child := range names {
				visit(Join(path, child), nd.children[child])
			}
		}
		removed = append(removed, path)
		if nd.children == nil && nd.meta.size > 0 {
			freed = append(freed, Inode{Ino: nd.ino, Size: nd.meta.size})
		}
	}
	visit(p, n)
	delete(parent.children, name)
	return removed, freed, nil
}

// Rename moves src (file or subtree) to dst. POSIX-style constraints:
// src must exist, dst must not, dst's parent must exist and be a
// directory, and dst must not lie inside src's own subtree.
func (t *Tree) Rename(src, dst string) error {
	src, dst = Clean(src), Clean(dst)
	if IsUnder(dst, src) {
		return fsapi.WrapPath("rename", dst, fsapi.ErrPermission)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, sname, err := t.walkParent(src)
	if err != nil {
		return fsapi.WrapPath("rename", src, err)
	}
	n, ok := sp.children[sname]
	if !ok {
		return fsapi.WrapPath("rename", src, fsapi.ErrNotExist)
	}
	dp, dname, err := t.walkParent(dst)
	if err != nil {
		return fsapi.WrapPath("rename", dst, err)
	}
	if _, exists := dp.children[dname]; exists {
		return fsapi.WrapPath("rename", dst, fsapi.ErrExist)
	}
	delete(sp.children, sname)
	dp.children[dname] = n
	return nil
}

// Readdir lists a directory's entries in name order.
func (t *Tree) Readdir(p string) ([]fsapi.DirEntry, error) {
	p = Clean(p)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.walk(p)
	if err != nil {
		return nil, fsapi.WrapPath("readdir", p, err)
	}
	if n.children == nil {
		return nil, fsapi.WrapPath("readdir", p, fsapi.ErrNotDir)
	}
	out := make([]fsapi.DirEntry, 0, len(n.children))
	for name, child := range n.children {
		out = append(out, fsapi.DirEntry{Name: name, Type: child.meta.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Walk visits every node under p (including p) in depth-first name
// order, calling fn with the full path, inode number and stat. A
// cross-shard rename exports a subtree with it.
func (t *Tree) Walk(p string, fn func(path string, ino uint64, stat fsapi.Stat) error) error {
	p = Clean(p)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.walk(p)
	if err != nil {
		return fsapi.WrapPath("walk", p, err)
	}
	var visit func(path string, nd *node) error
	visit = func(path string, nd *node) error {
		if err := fn(path, nd.ino, nd.meta.stat()); err != nil {
			return err
		}
		if nd.children == nil {
			return nil
		}
		names := make([]string, 0, len(nd.children))
		for name := range nd.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := visit(Join(path, name), nd.children[name]); err != nil {
				return err
			}
		}
		return nil
	}
	return visit(p, n)
}
