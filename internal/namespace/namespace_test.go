package namespace

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"pacon/internal/fsapi"
)

// size counts the objects of tr, its root excluded.
func size(t *testing.T, tr *Tree) int {
	t.Helper()
	n := -1
	if err := tr.Walk("/", func(string, uint64, fsapi.Stat) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestClean(t *testing.T) {
	cases := map[string]string{
		"":            "/",
		"/":           "/",
		"//":          "/",
		"a":           "/a",
		"/a/b":        "/a/b",
		"/a/b/":       "/a/b",
		"//a///b//":   "/a/b",
		"/./a/./b/.":  "/a/b",
		"a/b/c":       "/a/b/c",
		"/work space": "/work space",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSplitJoin(t *testing.T) {
	dir, name := Split("/a/b/c")
	if dir != "/a/b" || name != "c" {
		t.Fatalf("Split = %q, %q", dir, name)
	}
	dir, name = Split("/top")
	if dir != "/" || name != "top" {
		t.Fatalf("Split(/top) = %q, %q", dir, name)
	}
	dir, name = Split("/")
	if dir != "/" || name != "" {
		t.Fatalf("Split(/) = %q, %q", dir, name)
	}
	if Join("/", "a") != "/a" || Join("/a", "b") != "/a/b" {
		t.Fatal("Join wrong")
	}
}

func TestSplitJoinRoundTripProperty(t *testing.T) {
	f := func(segs []uint8) bool {
		p := "/"
		for _, s := range segs {
			p = Join(p, fmt.Sprintf("s%d", s%50))
		}
		// Join of Split must reproduce the path.
		if p == "/" {
			return true
		}
		dir, name := Split(p)
		return Join(dir, name) == p && Clean(p) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsDepth(t *testing.T) {
	if Depth("/") != 0 || Depth("/a") != 1 || Depth("/a/b/c") != 3 {
		t.Fatal("Depth wrong")
	}
	c := Components("/x/y")
	if len(c) != 2 || c[0] != "x" || c[1] != "y" {
		t.Fatalf("Components = %v", c)
	}
}

func TestIsUnder(t *testing.T) {
	cases := []struct {
		p, root string
		want    bool
	}{
		{"/a/b", "/a", true},
		{"/a", "/a", true},
		{"/ab", "/a", false},
		{"/a/b", "/a/b/c", false},
		{"/anything", "/", true},
		{"/", "/", true},
	}
	for _, c := range cases {
		if got := IsUnder(c.p, c.root); got != c.want {
			t.Errorf("IsUnder(%q, %q) = %v", c.p, c.root, got)
		}
	}
}

func TestCommonDir(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"/bench/c0/work/f01", "/bench/c0/work/r01", "/bench/c0/work"}, // same directory
		{"/w/a/f", "/w/b/c/g", "/w"},                                   // nested, different depths
		{"/a/f", "/b/g", "/"},                                          // only root holds both
		{"/a/b", "/a/b/c", "/a"},                                       // one under the other
		{"/a/b/c", "/a/b", "/a"},
		{"/a/f", "/a/f", "/a"},
		{"/a", "/ab/f", "/"}, // a prefix sibling is no ancestor
		{"/", "/a/b", "/"},
		{"/", "/", "/"},
		{"//a/./b/", "/a/c", "/a"},
	}
	for _, c := range cases {
		if got := CommonDir(c.a, c.b); got != c.want {
			t.Errorf("CommonDir(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// TestCommonDirProperty checks CommonDir against its definition over
// random paths from a small alphabet (prefix siblings included): the
// result holds both paths — each is a proper descendant, or root itself —
// and none of its children on the way to a holds b too.
func TestCommonDirProperty(t *testing.T) {
	names := []string{"a", "ab", "b", "a.b"}
	path := func(segs []uint8) string {
		p := "/"
		for _, s := range segs[:len(segs)%5] {
			p = Join(p, names[int(s)%len(names)])
		}
		return p
	}
	holds := func(dir, p string) bool {
		return p == "/" && dir == "/" || p != dir && IsUnder(p, dir)
	}
	f := func(sa, sb []uint8) bool {
		a, b := path(sa), path(sb)
		dir := CommonDir(a, b)
		if !holds(dir, a) || !holds(dir, b) || dir != CommonDir(b, a) {
			return false
		}
		for _, anc := range Ancestors(a) {
			if Depth(anc) > Depth(dir) && holds(anc, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestors(t *testing.T) {
	a := Ancestors("/a/b/c")
	if len(a) != 3 || a[0] != "/" || a[1] != "/a" || a[2] != "/a/b" {
		t.Fatalf("Ancestors = %v", a)
	}
	if got := Ancestors("/"); got != nil {
		t.Fatalf("Ancestors(/) = %v", got)
	}
	if a := Ancestors("/top"); len(a) != 1 || a[0] != "/" {
		t.Fatalf("Ancestors(/top) = %v", a)
	}
}

var cred = fsapi.Cred{UID: 1000, GID: 1000}

func newTestTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(cred)
	if err := tr.Mkdir("/w", fsapi.NewDirStat(cred, 0o755)); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTreeMkdirCreateLookup(t *testing.T) {
	tr := newTestTree(t)
	if err := tr.Create("/w/f1", fsapi.NewFileStat(cred, 0o644)); err != nil {
		t.Fatal(err)
	}
	st, err := tr.Lookup("/w/f1")
	if err != nil || st.Type != fsapi.TypeFile {
		t.Fatalf("lookup: %+v %v", st, err)
	}
	st, err = tr.Lookup("/w")
	if err != nil || !st.IsDir() {
		t.Fatalf("dir lookup: %+v %v", st, err)
	}
	if _, err := tr.Lookup("/nope"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("missing lookup err = %v", err)
	}
	if n := size(t, tr); n != 2 {
		t.Fatalf("len = %d", n)
	}
}

// TestExistsAllocatesNothing: every MDS create and mkdir asks Exists
// first, and a miss — the answer a create needs — must not build the
// error Lookup would return.
func TestExistsAllocatesNothing(t *testing.T) {
	tr := newTestTree(t)
	if err := tr.Create("/w/f", fsapi.NewFileStat(cred, 0o644)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    string
		want bool
	}{{"/w/f", true}, {"/w/missing", false}, {"/w/f/under-a-file", false}, {"/nope/deeper", false}} {
		if got := tr.Exists(tc.p); got != tc.want {
			t.Fatalf("Exists(%q) = %v, want %v", tc.p, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { tr.Exists(tc.p) }); n != 0 {
			t.Fatalf("Exists(%q) allocates %v times per call, want 0", tc.p, n)
		}
	}
}

func TestTreeNamespaceConventions(t *testing.T) {
	tr := newTestTree(t)
	// 1: object to be created must not exist.
	tr.Create("/w/f", fsapi.NewFileStat(cred, 0o644))
	if err := tr.Create("/w/f", fsapi.NewFileStat(cred, 0o644)); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("duplicate create = %v", err)
	}
	if err := tr.Mkdir("/w", fsapi.NewDirStat(cred, 0o755)); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("duplicate mkdir = %v", err)
	}
	// 2: parent must exist before children.
	if err := tr.Create("/ghost/f", fsapi.NewFileStat(cred, 0o644)); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("orphan create = %v", err)
	}
	// Parent must be a directory.
	if err := tr.Create("/w/f/x", fsapi.NewFileStat(cred, 0o644)); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("create under file = %v", err)
	}
	// 3: deleted object must exist.
	if _, err := tr.Remove("/w/ghost"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("remove missing = %v", err)
	}
}

func TestTreeRemoveTypeChecks(t *testing.T) {
	tr := newTestTree(t)
	tr.Create("/w/f", fsapi.NewFileStat(cred, 0o644))
	if _, err := tr.Remove("/w"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("remove dir via unlink = %v", err)
	}
	if err := tr.Rmdir("/w/f"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("rmdir file = %v", err)
	}
	if err := tr.Rmdir("/w"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if _, err := tr.Remove("/w/f"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rmdir("/w"); err != nil {
		t.Fatal(err)
	}
	if n := size(t, tr); n != 0 {
		t.Fatalf("len = %d", n)
	}
}

func TestTreeRemoveSubtree(t *testing.T) {
	tr := newTestTree(t)
	tr.Mkdir("/w/d1", fsapi.NewDirStat(cred, 0o755))
	tr.Create("/w/d1/f1", fsapi.NewFileStat(cred, 0o644))
	tr.Create("/w/d1/f2", fsapi.NewFileStat(cred, 0o644))
	tr.Mkdir("/w/d1/sub", fsapi.NewDirStat(cred, 0o755))
	tr.Create("/w/d1/sub/deep", fsapi.NewFileStat(cred, 0o644))
	tr.Create("/w/outside", fsapi.NewFileStat(cred, 0o644))

	removed, _, err := tr.RemoveSubtree("/w/d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 5 {
		t.Fatalf("removed %d paths: %v", len(removed), removed)
	}
	// Deepest-first: the directory itself is last.
	if removed[len(removed)-1] != "/w/d1" {
		t.Fatalf("removal order: %v", removed)
	}
	if tr.Exists("/w/d1/sub/deep") || tr.Exists("/w/d1") {
		t.Fatal("subtree still present")
	}
	if !tr.Exists("/w/outside") {
		t.Fatal("sibling removed")
	}
}

func TestTreeRemoveSubtreeErrors(t *testing.T) {
	tr := newTestTree(t)
	tr.Create("/w/f", fsapi.NewFileStat(cred, 0o644))
	if _, _, err := tr.RemoveSubtree("/w/ghost"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := tr.RemoveSubtree("/w/f"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestTreeReaddir(t *testing.T) {
	tr := newTestTree(t)
	tr.Create("/w/b", fsapi.NewFileStat(cred, 0o644))
	tr.Mkdir("/w/a", fsapi.NewDirStat(cred, 0o755))
	tr.Create("/w/c", fsapi.NewFileStat(cred, 0o644))
	ents, err := tr.Readdir("/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "a" || ents[1].Name != "b" || ents[2].Name != "c" {
		t.Fatalf("readdir = %v", ents)
	}
	if ents[0].Type != fsapi.TypeDir || ents[1].Type != fsapi.TypeFile {
		t.Fatal("entry types wrong")
	}
	if _, err := tr.Readdir("/w/b"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("readdir file = %v", err)
	}
}

func TestTreeSetStat(t *testing.T) {
	tr := newTestTree(t)
	tr.Create("/w/f", fsapi.NewFileStat(cred, 0o644))
	st, _ := tr.Lookup("/w/f")
	st.Size = 4096
	st.Type = fsapi.TypeDir // must be ignored: type is immutable
	if _, err := tr.SetStat("/w/f", st); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Lookup("/w/f")
	if got.Size != 4096 || got.Type != fsapi.TypeFile {
		t.Fatalf("setstat result = %+v", got)
	}
}

func TestTreeWalk(t *testing.T) {
	tr := newTestTree(t)
	tr.Mkdir("/w/d", fsapi.NewDirStat(cred, 0o755))
	tr.Create("/w/d/f", fsapi.NewFileStat(cred, 0o644))
	tr.Create("/w/a", fsapi.NewFileStat(cred, 0o644))
	var visited []string
	err := tr.Walk("/w", func(p string, _ uint64, st fsapi.Stat) error {
		visited = append(visited, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/w", "/w/a", "/w/d", "/w/d/f"}
	if len(visited) != len(want) {
		t.Fatalf("walk = %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("walk = %v, want %v", visited, want)
		}
	}
}

// Property: a random sequence of valid creates always leaves the tree
// consistent with a map model.
func TestTreeMatchesModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := NewTree(cred)
		model := map[string]bool{"/": true}
		dirs := []string{"/"}
		for _, o := range ops {
			parent := dirs[int(o)%len(dirs)]
			name := fmt.Sprintf("n%d", o%97)
			p := Join(parent, name)
			if model[p] {
				continue
			}
			isDir := o%3 == 0
			var err error
			if isDir {
				err = tr.Mkdir(p, fsapi.NewDirStat(cred, 0o755))
			} else {
				err = tr.Create(p, fsapi.NewFileStat(cred, 0o644))
			}
			if err != nil {
				return false
			}
			model[p] = true
			if isDir {
				dirs = append(dirs, p)
			}
		}
		for p := range model {
			if !tr.Exists(p) {
				return false
			}
		}
		return size(t, tr) == len(model)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRename(t *testing.T) {
	tr := newTestTree(t)
	tr.Mkdir("/w/a", fsapi.NewDirStat(cred, 0o755))
	tr.Create("/w/a/f", fsapi.NewFileStat(cred, 0o644))

	if err := tr.Rename("/w/a", "/w/b"); err != nil {
		t.Fatal(err)
	}
	if tr.Exists("/w/a") || !tr.Exists("/w/b/f") {
		t.Fatal("rename lost the subtree")
	}
	// Missing source.
	if err := tr.Rename("/w/ghost", "/w/x"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	// Existing destination.
	tr.Mkdir("/w/c", fsapi.NewDirStat(cred, 0o755))
	if err := tr.Rename("/w/c", "/w/b"); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("err = %v", err)
	}
	// Destination inside source.
	if err := tr.Rename("/w/b", "/w/b/inside"); !errors.Is(err, fsapi.ErrPermission) {
		t.Fatalf("err = %v", err)
	}
	// Destination parent missing.
	if err := tr.Rename("/w/c", "/w/nope/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

// TestInodeNumbers: a tree numbers what it creates from its first number
// on, a rename keeps the number, a number handed in is kept, and an
// unlink names the inodes that held bytes.
func TestInodeNumbers(t *testing.T) {
	tr := NewTreeFrom(cred, 1<<48|1)
	if err := tr.Mkdir("/w", fsapi.NewDirStat(cred, 0o755)); err != nil {
		t.Fatal(err)
	}
	full := fsapi.NewFileStat(cred, 0o644)
	full.Size = 10
	ino, err := tr.Add("/w/f", full, 0)
	if err != nil || ino != 1<<48|2 {
		t.Fatalf("second object numbered %#x (%v), want %#x", ino, err, 1<<48|2)
	}
	if err := tr.Rename("/w/f", "/w/g"); err != nil {
		t.Fatal(err)
	}
	if _, got, _ := tr.LookupIno("/w/g"); got != ino {
		t.Fatalf("renamed file is inode %#x, was %#x", got, ino)
	}
	if got, _ := tr.Add("/w/moved", full, 77); got != 77 {
		t.Fatalf("a number handed in became %d", got)
	}
	if err := tr.Create("/w/empty", fsapi.NewFileStat(cred, 0o644)); err != nil {
		t.Fatal(err)
	}
	if gone, err := tr.Remove("/w/g"); err != nil || gone != (Inode{Ino: ino, Size: 10}) {
		t.Fatalf("remove answered %+v (%v)", gone, err)
	}
	removed, freed, err := tr.RemoveSubtree("/w")
	if err != nil || len(removed) != 3 || len(freed) != 1 || freed[0] != (Inode{Ino: 77, Size: 10}) {
		t.Fatalf("rmtree removed %v and freed %+v (%v), want the one file with bytes", removed, freed, err)
	}
}

// TestNodeFitsItsSizeClass: a node is 56 bytes, in the 64-byte size
// class — one per object the MDS holds, so a field more is a size class
// more for every file.
func TestNodeFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n > 64 {
		t.Fatalf("namespace node is %d bytes, past the 64-byte size class", n)
	}
}
