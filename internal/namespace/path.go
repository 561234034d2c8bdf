// Package namespace provides path canonicalisation and the in-memory
// namespace tree used by the DFS metadata server. The tree enforces the
// paper's "namespace conventions" (§III.E.1): an object being created
// must not exist, its parent must already exist and be a directory, and
// a removed object must exist — the DFS-side guarantees Pacon's
// independent commit relies on.
package namespace

import "strings"

// Clean canonicalises a path: one leading slash, no trailing slash
// (except root), empty and dot segments removed. It is intentionally a
// small subset of path.Clean — ".." is treated as a literal name, since
// no system in this repository generates it.
//
// Already-clean paths — the overwhelmingly common case, since every
// layer cleans on entry and then passes cleaned paths down — return the
// input unchanged without allocating: Clean sits on every op's hot path
// and the Split+Builder slow path used to be the single largest
// allocation site of the whole create chain.
func Clean(p string) string {
	if isClean(p) {
		return p
	}
	var b strings.Builder
	b.Grow(len(p) + 1)
	for _, seg := range strings.Split(p, "/") {
		if seg == "" || seg == "." {
			continue
		}
		b.WriteByte('/')
		b.WriteString(seg)
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

// isClean reports whether p is already in canonical form: "/" or a
// '/'-prefixed path with no empty, "." or trailing segments. One byte
// scan, zero allocations.
func isClean(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) == 0 || p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	segStart := 1
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			seg := p[segStart:i]
			if len(seg) == 0 || seg == "." {
				return false
			}
			segStart = i + 1
		}
	}
	return true
}

// Split returns the parent directory and base name of a cleaned path.
// Split("/") returns ("/", "").
func Split(p string) (dir, name string) {
	p = Clean(p)
	if p == "/" {
		return "/", ""
	}
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// Join appends name under dir.
func Join(dir, name string) string {
	dir = Clean(dir)
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Components returns the path's segments ("/a/b" → ["a","b"]); root has
// none.
func Components(p string) []string {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	return strings.Split(p[1:], "/")
}

// EachComponent calls fn for every segment of p in order, stopping early
// when fn returns false. It is Components without the slice allocation —
// the segments are subslices of the cleaned path — for per-op tree walks.
func EachComponent(p string, fn func(seg string) bool) {
	p = Clean(p)
	if p == "/" {
		return
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if !fn(p[start:i]) {
				return
			}
			start = i + 1
		}
	}
}

// Depth is the number of components ("/" = 0, "/a/b" = 2).
func Depth(p string) int {
	p = Clean(p)
	if p == "/" {
		return 0
	}
	return strings.Count(p, "/")
}

// IsUnder reports whether p equals root or lies in root's subtree.
func IsUnder(p, root string) bool {
	p, root = Clean(p), Clean(root)
	if root == "/" {
		return true
	}
	if p == root {
		return true
	}
	return strings.HasPrefix(p, root+"/")
}

// Ancestors lists every proper ancestor of p from "/" down to its
// parent ("/a/b/c" → ["/", "/a", "/a/b"]). Each ancestor is a prefix
// subslice of the cleaned path, so only the slice header is allocated.
func Ancestors(p string) []string {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	out := make([]string, 0, Depth(p))
	out = append(out, "/")
	for i := 1; i < len(p); i++ {
		if p[i] == '/' {
			out = append(out, p[:i])
		}
	}
	return out
}

// VisitAncestors calls fn for every proper ancestor of p in Ancestors
// order, stopping early when fn returns false — the zero-allocation form
// for per-op traversal loops (every DFS call resolves its ancestors).
func VisitAncestors(p string, fn func(anc string) bool) {
	p = Clean(p)
	if p == "/" {
		return
	}
	if !fn("/") {
		return
	}
	for i := 1; i < len(p); i++ {
		if p[i] == '/' && !fn(p[:i]) {
			return
		}
	}
}

// CommonDir returns the deepest directory that holds both a and b: the
// deepest common ancestor of their parents ("/a/b/f", "/a/b/g" → "/a/b";
// "/a/b", "/a/b/c" → "/a"; "/a/f", "/b/g" → "/"). Root holds itself.
// The result is a prefix of a's cleaned form.
func CommonDir(a, b string) string {
	a, b = Clean(a), Clean(b)
	dir, _ := Split(a)
	other, _ := Split(b)
	for !IsUnder(other, dir) {
		dir, _ = Split(dir)
	}
	return dir
}
