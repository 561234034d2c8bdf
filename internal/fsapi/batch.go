package fsapi

// BatchKind names a mutation inside an apply_batch RPC — the only form
// in which a single-path mutation reaches an MDS, whether it travels in
// a commit wave or alone. The commit queue carries the first four;
// rmdir only ever travels alone (Pacon removes directories by rmtree),
// and rmtree and rename stay dependent operations with endpoints of
// their own.
type BatchKind uint8

const (
	BatchCreate BatchKind = iota
	BatchMkdir
	BatchSetStat
	BatchRemove
	BatchRmdir
)

// StatResult is one per-path outcome of a batched stat (the read-path
// analogue of ApplyBatch's per-op error slice): Stat is valid only when
// Err is nil.
type StatResult struct {
	Stat Stat
	Err  error
}

// BatchOp is one mutation of a batched DFS commit. Paths within a batch
// are independent (the commit module ships at most one op per path per
// batch), so the server may apply them in any order.
type BatchOp struct {
	Kind BatchKind
	// IfExists marks a remove whose target may legitimately be absent:
	// the commit module's coalescer folds a queued create+remove pair
	// into one "ensure absent" remove, and the create may or may not have
	// reached the DFS (an earlier attempt could have been applied before
	// a retried batch). ErrNotExist is success for such a remove.
	IfExists bool
	Path     string
	// Stat carries the full metadata for create/mkdir/setstat. A remove
	// sends none; applied, its Size reports the unlinked file's.
	Stat Stat
	// Ino is filled in by the DFS for an op that applied: the inode
	// number of the object the op created, set or unlinked at Path — the
	// one a data write to the path goes to, or whose chunks a remove that
	// unlinked bytes drops.
	Ino uint64
}

// FileWrite is one whole small file of a batched data write: Data goes
// to offset 0 of the file at Path, inode Ino. It carries no size: the
// caller has just created the file or set its stat, in the same commit
// wave, with the size these bytes have, and that batch answered the
// inode (BatchOp.Ino).
type FileWrite struct {
	Path string
	Ino  uint64
	Data []byte
}
