package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/memcache"
	"pacon/internal/vclock"
)

// TestBackendIsExactlyWhatCoreCalls pins the Backend contract's shape:
// core calls these thirteen methods and discovers nothing else by type
// assertion, which is what lets a wrapper embed the interface and get
// every one promoted. (WriteBatch is the thirteenth: the bytes a commit
// wave owes, in one call.) Another method is a capability arriving — add
// it here and to every implementation, in the open; a capability probed
// for with a type assertion instead never shows up in this list, and is
// the trap this test's existence is meant to keep closed (a wrapper
// silently running a fallback no production backend runs).
func TestBackendIsExactlyWhatCoreCalls(t *testing.T) {
	want := []string{"ApplyBatch", "ClearTrace", "InvalidateSubtree", "Pace", "ReadAt", "Readdir",
		"Rename", "RmTree", "SetTrace", "Stat", "StatBatch", "WriteAt", "WriteBatch"}
	rt := reflect.TypeOf((*Backend)(nil)).Elem()
	got := make([]string, rt.NumMethod())
	for i := range got {
		got[i] = rt.Method(i).Name
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Backend methods = %v, want exactly %v", got, want)
	}
}

// TestLoadIsTheOneHomeOfTheMissProtocol pins in the source what entry.go's
// header says: in non-test core the invalidation generation is read in
// the load guard's two halves alone — the token a load reads before the
// DFS (Region.loadToken) and the check the owning cache server makes under
// the key's lock (Region.current) — and a loaded entry is added by its
// owner alone, through entry.go's Region.loader, the memcache client
// having no add at all. Nothing revokes a load: only eviction deletes an entry
// because it is clean. And the guarded single-key delete the revoke once
// needed exists nowhere in the module. A second copy of the miss-load
// protocol fails here, not in a review.
func TestLoadIsTheOneHomeOfTheMissProtocol(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var genReaders, adders []string
	loadHook := regexp.MustCompile(`memcache\.Load\b`)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range bytes.Split(src, []byte("\nfunc "))[1:] { // one top-level function each
			sig, _, _ := bytes.Cut(fn, []byte("\n"))
			if bytes.Contains(fn, []byte("invalGen.Load()")) {
				genReaders = append(genReaders, name+": "+string(sig))
			}
			if loadHook.Match(fn) {
				adders = append(adders, name+": "+string(sig))
			}
		}
		if bytes.Contains(src, []byte("evEvict")) && name != "evict.go" && name != "entry.go" {
			t.Errorf("%s deletes entries because they are clean; only eviction does", name)
		}
	}
	sort.Strings(genReaders)
	if len(genReaders) != 2 || !strings.HasPrefix(genReaders[0], "entry.go: (r *Region) current(") ||
		!strings.HasPrefix(genReaders[1], "entry.go: (r *Region) loadToken(") {
		t.Errorf("invalGen is read in %q, want in entry.go's Region.current and Region.loadToken alone", genReaders)
	}
	if len(adders) != 1 || !strings.HasPrefix(adders[0], "entry.go: (r *Region) loader(") {
		t.Errorf("a cache server's load is built in %q, want in entry.go's Region.loader alone", adders)
	}
	for ct, i := reflect.TypeOf(&memcache.Client{}), 0; i < ct.NumMethod(); i++ {
		if name := ct.Method(i).Name; strings.HasPrefix(name, "Add") {
			t.Errorf("memcache.Client has %s: a client-side add is back beside the owner's load", name)
		}
	}
	gone := "Delete" + "CAS"
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err == nil && bytes.Contains(src, []byte(gone)) {
			t.Errorf("%s mentions %s: a clean entry leaves the cache through mutate_multi only", path, gone)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// formatNames are the words of the entry's format and its settles; a
// lower-case one counts only where a name starts with it ("second" is no
// Cond).
var formatNames = regexp.MustCompile(`Hdr|Cond|Settle|Dirty|Removed|Committed|ValueHeader|^(hdr|cond|settle|dirty|removed|committed|valueHeader)`)

// TestCacheKnowsNoEntryFormat: an entry's format and what it may become
// are core's (entry.go), and the cache servers keep bytes and run the row
// core installs. So non-test internal/memcache declares no name in the
// format's words (formatNames) and reads no byte of a []byte by index: a
// header predicate back in the cache fails here, not in a review.
func TestCacheKnowsNoEntryFormat(t *testing.T) {
	for _, bad := range formatViolations(t, "../memcache") {
		t.Error(bad)
	}
}

// formatViolations type-checks the non-test files of the package in dir
// and lists its declared names in the format's words and its index reads
// of byte slices.
func formatViolations(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("parse %s: %d packages, %v", dir, len(pkgs), err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	var out []string
	for id, obj := range info.Defs {
		if obj != nil && formatNames.MatchString(id.Name) {
			out = append(out, fmt.Sprintf("%s: declares %s", fset.Position(id.Pos()), id.Name))
		}
	}
	bytesType := types.NewSlice(types.Typ[types.Byte])
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok && types.Identical(info.TypeOf(ix.X), bytesType) {
				out = append(out, fmt.Sprintf("%s: reads a byte by index", fset.Position(ix.Pos())))
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// statBatchCounter is a Backend wrapper of the ordinary kind: it embeds
// the interface and overrides the one method it cares about.
type statBatchCounter struct {
	Backend
	calls, paths *atomic.Int64
}

func (s *statBatchCounter) StatBatch(at vclock.Time, paths []string) ([]fsapi.StatResult, vclock.Time, error) {
	s.calls.Add(1)
	s.paths.Add(int64(len(paths)))
	return s.Backend.StatBatch(at, paths)
}

// TestWrappedBackendSeesBulkMissLoads: the bulk miss-load goes through
// Backend.StatBatch whatever the backend is wrapped in — a StatMulti's
// misses and a Readdir's warm each reach an embedding wrapper's override
// as one call carrying every missing path.
func TestWrappedBackendSeesBulkMissLoads(t *testing.T) {
	var calls, paths atomic.Int64
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &statBatchCounter{Backend: inner(node), calls: &calls, paths: &paths}
		}
	})
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	const files = 12
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("/w/d/f%02d", i)
		if at, err = c.Create(at, names[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}

	at = evict(t, e.region, c, at, "/w/d", true)
	res, at, err := c.StatMulti(at, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("statmulti %s: %v", names[i], r.Err)
		}
	}
	if calls.Load() != 1 || paths.Load() != files {
		t.Fatalf("StatMulti's %d misses reached the wrapper as %d StatBatch calls over %d paths, want 1 over %d",
			files, calls.Load(), paths.Load(), files)
	}

	at = evict(t, e.region, c, at, "/w/d", true)
	if _, _, err = c.Readdir(at, "/w/d"); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || paths.Load() != 2*files {
		t.Fatalf("after the Readdir warm the wrapper has seen %d StatBatch calls over %d paths, want 2 over %d",
			calls.Load(), paths.Load(), 2*files)
	}
}

// TestBackendReadSizedByAuthoritativeStat: a data read through the
// backend sizes its work by the file's metadata, so that metadata must
// be the DFS's current answer and not something the DFS client
// remembers. A's miss-load leaves A's backend having seen the file at
// size 0; the write commits through the node's commit backend; B's
// miss-load installs the clean 8-byte entry without its bytes, so A's
// read goes to the DFS — where a remembered size of 0 reads as an empty
// file: an acked, committed write returned as "".
func TestBackendReadSizedByAuthoritativeStat(t *testing.T) {
	e := newEnv(t, 1, nil)
	a, b := e.client(t, "node0"), e.client(t, "node0")
	data := []byte("eight by")

	at, err := a.Create(0, "/w/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	at = evict(t, e.region, a, at, "/w/f", false)
	if _, at, err = a.Stat(at, "/w/f"); err != nil {
		t.Fatal(err)
	}
	if at, err = a.WriteAt(at, "/w/f", 0, data); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	at = evict(t, e.region, a, at, "/w/f", false)
	st, at, err := b.Stat(at, "/w/f")
	if err != nil || st.Size != int64(len(data)) {
		t.Fatalf("B's miss-load = %+v, %v; want size %d", st, err, len(data))
	}
	got, _, err := a.ReadAt(at, "/w/f", 0, 64)
	if err != nil || string(got) != string(data) {
		t.Fatalf("A read %q, %v; want the committed %q", got, err, data)
	}
}

// TestBackendWriteSizedByAuthoritativeStat is the write-side twin: a
// write-back extends the DFS size only if it ends past the size the DFS
// client believes the file has, so a size remembered from a dead
// incarnation swallows the extension. B's second identical write leaves
// node1's commit backend having seen /w/s at 32 bytes; A, on the other
// node, removes the file; B re-creates it and writes 8 bytes. Sized by
// the dead incarnation the write-back sends no size update, the DFS
// keeps the new file at 0 bytes, and once the clean entry is evicted
// every read of the acked, committed write returns "".
func TestBackendWriteSizedByAuthoritativeStat(t *testing.T) {
	e := newEnv(t, 2, nil)
	a, b := e.client(t, "node0"), e.client(t, "node1")
	old, data := []byte("thirty-two bytes of old contents"), []byte("eight by")
	drain := func(at vclock.Time, err error) vclock.Time {
		t.Helper()
		if err == nil {
			at, err = e.region.Drain(at)
		}
		if err != nil {
			t.Fatal(err)
		}
		return at
	}

	at := drain(b.Create(0, "/w/s", 0o644))
	at = drain(b.WriteAt(at, "/w/s", 0, old))
	at = drain(b.WriteAt(at, "/w/s", 0, old))
	at = drain(a.Remove(at, "/w/s"))
	at = drain(b.Create(at, "/w/s", 0o644))
	at = drain(b.WriteAt(at, "/w/s", 0, data))

	at = evict(t, e.region, a, at, "/w/s", false)
	if st, err := e.dfs.MDS.Tree().Lookup("/w/s"); err != nil || st.Size != int64(len(data)) {
		t.Fatalf("DFS backup after the write-back = %+v, %v; want size %d", st, err, len(data))
	}
	got, _, err := a.ReadAt(at, "/w/s", 0, 64)
	if err != nil || string(got) != string(data) {
		t.Fatalf("read %q, %v; want the committed %q", got, err, data)
	}
}

// vanishingDir is a Backend whose listing of dir finds it just removed:
// once armed, the next Readdir of it runs an RmTree first, as a
// concurrent rmdir that won the race would have.
type vanishingDir struct {
	Backend
	dir   string
	armed *atomic.Bool
}

func (v *vanishingDir) Readdir(at vclock.Time, p string) ([]fsapi.DirEntry, vclock.Time, error) {
	if p == v.dir && v.armed.CompareAndSwap(true, false) {
		if _, done, err := v.Backend.RmTree(at, p); err == nil {
			at = done
		}
	}
	return v.Backend.Readdir(at, p)
}

// TestEvictionSkipsVanishedDirectory: an eviction round picks a directory
// from the workspace listing and lists it; if an rmdir removed it in
// between, there is nothing left under it to evict, and the client
// operation that needed the room must not fail with the listing's
// ErrNotExist.
func TestEvictionSkipsVanishedDirectory(t *testing.T) {
	var armed atomic.Bool
	e := newEnvDeps(t, 1, nil, func(d *Deps) {
		inner := d.NewBackend
		d.NewBackend = func(node string) Backend {
			return &vanishingDir{Backend: inner(node), dir: "/w/doomed", armed: &armed}
		}
	})
	c := e.client(t, "node0")
	at, err := c.Mkdir(0, "/w/doomed", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = c.Create(at, "/w/doomed/f", 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if _, err = e.region.evictRound(c, at); err != nil {
		t.Fatalf("eviction round over a directory removed under it: %v", err)
	}
	if armed.Load() || e.dfs.MDS.Tree().Exists("/w/doomed") {
		t.Fatal("the round never listed the doomed directory")
	}
	if _, ok := findEntry(t, e.region, "/w/doomed"); ok {
		t.Fatal("the vanished directory's clean entry survived the round")
	}
}

// TestRemoveOfCachedEntryEvictsWhenCacheFull: marking a cached entry
// removed rewrites it under a new seq, and past seq 127 the marker is a
// byte longer than the entry it replaces — on a cache whose budget is
// exhausted to the byte by clean entries the CAS is refused for space.
// Remove must then make room and re-examine, as insert, WriteAt and its
// own not-cached branch do, not hand ErrOutOfSpace to the application.
func TestRemoveOfCachedEntryEvictsWhenCacheFull(t *testing.T) {
	// fill commits 130 files, which leaves each a clean cache entry and
	// the region's seq past 127.
	fill := func(capacity int64) (*env, *Client, vclock.Time) {
		e := newEnv(t, 1, func(cfg *RegionConfig) { cfg.CacheCapacityBytes = capacity })
		c := e.client(t, "node0")
		at := vclock.Time(0)
		var err error
		for i := 0; i < 130; i++ {
			if at, err = c.Create(at, fmt.Sprintf("/w/f%03d", i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = e.region.Drain(at); err != nil {
			t.Fatal(err)
		}
		return e, c, at
	}
	// What the filled cache weighs, measured on an unbounded region, is
	// the budget of the bounded one: full to the byte, nothing evicted.
	e, _, _ := fill(0)
	e, c, at := fill(e.region.CacheStats().UsedBytes)
	if s := e.region.Stats(); s.Evictions != 0 {
		t.Fatalf("the fill itself evicted: %+v", s)
	}
	at, err := c.Remove(at, "/w/f064")
	if err != nil {
		t.Fatalf("remove of a cached file on a full cache: %v", err)
	}
	if s := e.region.Stats(); s.Evictions == 0 {
		t.Fatalf("remove fit without evicting: %+v", s)
	}
	if _, err = e.region.Drain(at); err != nil {
		t.Fatal(err)
	}
	if e.dfs.MDS.Tree().Exists("/w/f064") {
		t.Fatal("remove never reached the DFS")
	}
}
