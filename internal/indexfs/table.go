package indexfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"pacon/internal/fsapi"
	"pacon/internal/wire"
)

// row is one directory entry: the stat plus, for a directory, the
// child's own directory ID.
type row struct {
	st    fsapi.Stat
	child DirID
}

// bulkRow is a row with its key, as a bulk-mode client buffers it and
// the bulk endpoint receives it.
type bulkRow struct {
	dir  DirID
	name string
	row
}

// encodeBulkRow writes r as IndexFS ships a row to LevelDB, so a bulk
// frame costs the bytes it would there: the key blob (8-byte big-endian
// dir ID + '/' + name) and the value blob (stat + child dir ID).
func encodeBulkRow(e *wire.Encoder, r bulkRow) {
	k := make([]byte, 0, 9+len(r.name))
	k = binary.BigEndian.AppendUint64(k, r.dir)
	k = append(k, '/')
	e.Blob(append(k, r.name...))
	v := wire.NewEncoder(80 + len(r.st.Inline))
	fsapi.EncodeStat(v, r.st)
	v.Uvarint(r.child)
	e.Blob(v.Bytes())
}

func decodeBulkRow(d *wire.Decoder) (bulkRow, error) {
	k := d.BlobView()
	v := wire.NewDecoder(d.BlobView())
	st := fsapi.DecodeStat(v)
	child := v.Uvarint()
	if err := cmp.Or(d.Err(), v.Finish()); err != nil {
		return bulkRow{}, err
	}
	if len(k) < 9 || k[8] != '/' {
		return bulkRow{}, errors.New("indexfs: malformed bulk row key")
	}
	return bulkRow{dir: binary.BigEndian.Uint64(k), name: string(k[9:]), row: row{st: st, child: child}}, nil
}

// table is a server's share of the flattened namespace: (parent
// directory ID, name) → row, one map per directory, so readdir and the
// emptiness check touch only that directory's rows. One RWMutex guards
// it and every method is one critical section, so a check and the write
// it guards (create's existence check, remove's type check) cannot
// interleave with another writer's.
type table struct {
	mu      sync.RWMutex
	dirs    map[DirID]map[string]row
	lastDir DirID // the last directory ID handed out
}

func newTable(lastDir DirID) *table {
	return &table{dirs: make(map[DirID]map[string]row), lastDir: lastDir}
}

func (t *table) get(dir DirID, name string) (row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.dirs[dir][name]
	return r, ok
}

// insert adds a row for st unless (dir, name) already holds one, and
// returns the row's child directory ID (0 for a file). A directory's ID
// is allocated here, under the lock, so an ID exists only once its row
// does: of two racing mkdirs exactly one gets an ID, and it is the
// stored one.
func (t *table) insert(dir DirID, name string, st fsapi.Stat) (DirID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.dirs[dir][name]; ok {
		return 0, false
	}
	var child DirID
	if st.IsDir() {
		t.lastDir++
		child = t.lastDir
	}
	t.rowsOf(dir)[name] = row{st: st, child: child}
	return child, true
}

// remove deletes (dir, name) if its row is a directory exactly when
// wantDir is set.
func (t *table) remove(dir DirID, name string, wantDir bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.dirs[dir][name]
	switch {
	case !ok:
		return fsapi.ErrNotExist
	case r.st.IsDir() && !wantDir:
		return fsapi.ErrIsDir
	case !r.st.IsDir() && wantDir:
		return fsapi.ErrNotDir
	}
	delete(t.dirs[dir], name)
	if len(t.dirs[dir]) == 0 {
		delete(t.dirs, dir)
	}
	return nil
}

func (t *table) empty(dir DirID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.dirs[dir]) == 0
}

// scan lists a directory's rows in name order.
func (t *table) scan(dir DirID) []fsapi.DirEntry {
	t.mu.RLock()
	ents := make([]fsapi.DirEntry, 0, len(t.dirs[dir]))
	for name, r := range t.dirs[dir] {
		ents = append(ents, fsapi.DirEntry{Name: name, Type: r.st.Type})
	}
	t.mu.RUnlock()
	slices.SortFunc(ents, func(a, b fsapi.DirEntry) int { return cmp.Compare(a.Name, b.Name) })
	return ents
}

// put stores rows, each replacing whatever its key held: a bulk row is
// the newest write of its key.
func (t *table) put(rows []bulkRow) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		t.rowsOf(r.dir)[r.name] = r.row
	}
}

// rowsOf returns dir's rows, adding an empty map for a directory that
// has none here; the caller holds mu for writing.
func (t *table) rowsOf(dir DirID) map[string]row {
	rows, ok := t.dirs[dir]
	if !ok {
		rows = make(map[string]row)
		t.dirs[dir] = rows
	}
	return rows
}
