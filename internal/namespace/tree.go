package namespace

import (
	"sort"
	"sync"

	"pacon/internal/fsapi"
)

// Tree is a concurrent in-memory namespace. All methods take cleaned or
// uncleaned paths (they clean internally) and enforce the namespace
// conventions, returning fsapi sentinel errors on violations.
type Tree struct {
	mu   sync.RWMutex
	root *node
	n    int // nodes excluding root
}

type node struct {
	stat     fsapi.Stat
	children map[string]*node // nil for files
}

// NewTree returns a namespace holding only the root directory, owned by
// cred.
func NewTree(cred fsapi.Cred) *Tree {
	return &Tree{root: &node{
		stat:     fsapi.NewDirStat(cred, fsapi.ModeDefaultDir),
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
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.walk(Clean(p))
	if err != nil {
		return fsapi.Stat{}, fsapi.WrapPath("lookup", p, err)
	}
	return n.stat, nil
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

// insert adds a child enforcing create conventions.
func (t *Tree) insert(op, p string, stat fsapi.Stat, isDir bool) error {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return fsapi.WrapPath(op, p, err)
	}
	if _, exists := parent.children[name]; exists {
		return fsapi.WrapPath(op, p, fsapi.ErrExist)
	}
	n := &node{stat: stat}
	if isDir {
		n.children = make(map[string]*node)
	}
	parent.children[name] = n
	t.n++
	return nil
}

// Mkdir creates a directory. The stat's Type is forced to TypeDir.
func (t *Tree) Mkdir(p string, stat fsapi.Stat) error {
	stat.Type = fsapi.TypeDir
	return t.insert("mkdir", p, stat, true)
}

// Create creates a regular file. The stat's Type is forced to TypeFile.
func (t *Tree) Create(p string, stat fsapi.Stat) error {
	stat.Type = fsapi.TypeFile
	return t.insert("create", p, stat, false)
}

// SetStat replaces the metadata of an existing object, preserving its
// type.
func (t *Tree) SetStat(p string, stat fsapi.Stat) error {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	n, err := t.walk(p)
	if err != nil {
		return fsapi.WrapPath("setstat", p, err)
	}
	stat.Type = n.stat.Type
	n.stat = stat
	return nil
}

// Remove unlinks a regular file.
func (t *Tree) Remove(p string) error {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return fsapi.WrapPath("remove", p, err)
	}
	n, ok := parent.children[name]
	if !ok {
		return fsapi.WrapPath("remove", p, fsapi.ErrNotExist)
	}
	if n.children != nil {
		return fsapi.WrapPath("remove", p, fsapi.ErrIsDir)
	}
	delete(parent.children, name)
	t.n--
	return nil
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
	t.n--
	return nil
}

// RemoveSubtree removes a directory and everything below it, returning
// the full paths removed (the recursive cleanup a Pacon rmdir performs
// on the DFS and mirrors into its cache). The returned list includes p
// itself, deepest entries first.
func (t *Tree) RemoveSubtree(p string) ([]string, error) {
	p = Clean(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, name, err := t.walkParent(p)
	if err != nil {
		return nil, fsapi.WrapPath("rmdir", p, err)
	}
	n, ok := parent.children[name]
	if !ok {
		return nil, fsapi.WrapPath("rmdir", p, fsapi.ErrNotExist)
	}
	if n.children == nil {
		return nil, fsapi.WrapPath("rmdir", p, fsapi.ErrNotDir)
	}
	var removed []string
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
		t.n--
	}
	visit(p, n)
	delete(parent.children, name)
	return removed, nil
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
		out = append(out, fsapi.DirEntry{Name: name, Type: child.stat.Type})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Walk visits every node under p (including p) in depth-first name
// order, calling fn with the full path and stat. Used by checkpointing
// (subtree copy) and region eviction.
func (t *Tree) Walk(p string, fn func(path string, stat fsapi.Stat) error) error {
	p = Clean(p)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, err := t.walk(p)
	if err != nil {
		return fsapi.WrapPath("walk", p, err)
	}
	var visit func(path string, nd *node) error
	visit = func(path string, nd *node) error {
		if err := fn(path, nd.stat); err != nil {
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

// Len returns the number of objects excluding root.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}
