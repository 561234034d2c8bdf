package audit

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

var (
	rootCred = fsapi.Cred{UID: 0, GID: 0}
	appCred  = fsapi.Cred{UID: 1000, GID: 1000}
)

// newTestRegion builds a one-node region over a DFS cluster; wrap (when
// non-nil) decorates every backend the region builds.
func newTestRegion(t *testing.T, wrap func(core.Backend) core.Backend) (*core.Region, *core.Client) {
	t.Helper()
	bus := rpc.NewBus()
	model := vclock.Default()
	cluster := dfs.NewCluster(bus, model, rootCred, "storage0", []string{"storage1"})
	admin := cluster.NewClient("admin", rootCred, 0, 0)
	if _, err := admin.Mkdir(0, "/w", 0o777); err != nil {
		t.Fatal(err)
	}
	region, err := core.NewRegion(core.RegionConfig{
		Name:      "audit",
		Workspace: "/w",
		Nodes:     []string{"node0"},
		Cred:      appCred,
		Model:     model,
	}, core.Deps{
		Bus: bus,
		NewBackend: func(node string) core.Backend {
			b := core.Backend(cluster.NewClient(node, appCred, 4096, vclock.Duration(time.Hour)))
			if wrap != nil {
				b = wrap(b)
			}
			return b
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { region.Close() })
	cl, err := region.NewClient("node0")
	if err != nil {
		t.Fatal(err)
	}
	return region, cl
}

// TestQuiescedAuditAllMatch: after a drain every sampled committed key
// must match the DFS — the paconfs-audit acceptance bar.
func TestQuiescedAuditAllMatch(t *testing.T) {
	region, cl := newTestRegion(t, nil)
	var at vclock.Time
	var err error
	if at, err = cl.Mkdir(at, "/w/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if at, err = cl.Create(at, fmt.Sprintf("/w/dir/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	at, err = region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}

	rep, _, err := Run(cl, at, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampled == 0 {
		t.Fatal("audit sampled nothing on a populated region")
	}
	if rep.Matched != rep.Sampled || rep.Divergent != 0 || rep.StalePending != 0 {
		t.Fatalf("quiesced audit not 100%% match: %s", rep)
	}
	if rep.OrphanChunks != 0 {
		t.Fatalf("%d orphan chunk(s) on a matching report", rep.OrphanChunks)
	}
	v, ok := region.LastAudit()
	if !ok || v.Sampled != rep.Sampled || v.Divergent != 0 {
		t.Fatalf("verdict not recorded with the region: %+v ok=%v", v, ok)
	}
	if h := region.Health(); h.Status != core.HealthOK {
		t.Fatalf("health %v after clean audit, want ok (%v)", h.Status, h.Reasons)
	}
}

// skipBackend is the deliberately broken commit: creations report
// success without ever reaching the DFS. The cache ends up with clean
// entries that have no backing — exactly the lost-commit failure mode
// the auditor exists to catch.
type skipBackend struct {
	core.Backend
}

func (s *skipBackend) ApplyBatch(at vclock.Time, ops []fsapi.BatchOp) ([]error, vclock.Time, error) {
	return make([]error, len(ops)), at, nil // lie: all ops "applied"
}

// TestCommitSkipFaultDetected: the injected commit-skip fault must
// surface as divergent findings and push region health to stalled.
func TestCommitSkipFaultDetected(t *testing.T) {
	region, cl := newTestRegion(t, func(b core.Backend) core.Backend {
		return &skipBackend{Backend: b}
	})
	var at vclock.Time
	var err error
	for i := 0; i < 5; i++ {
		if at, err = cl.Create(at, fmt.Sprintf("/w/lost%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	at, err = region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}

	rep, _, err := Run(cl, at, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent == 0 {
		t.Fatalf("commit-skip fault not detected: %s", rep)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Verdict == Divergent && strings.Contains(f.Detail, "missing on DFS") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergent missing-on-DFS finding: %s", rep)
	}
	if h := region.Health(); h.Status != core.HealthStalled {
		t.Fatalf("health %v after divergent audit, want stalled", h.Status)
	}
	if !strings.Contains(rep.String(), "divergent") {
		t.Fatalf("report summary does not mention divergence: %s", rep)
	}
}

// TestSampleLimit caps the audited key count.
func TestSampleLimit(t *testing.T) {
	region, cl := newTestRegion(t, nil)
	var at vclock.Time
	var err error
	for i := 0; i < 10; i++ {
		if at, err = cl.Create(at, fmt.Sprintf("/w/s%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	at, err = region.Drain(at)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(cl, at, Config{SampleLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampled != 3 {
		t.Fatalf("sampled %d keys with limit 3", rep.Sampled)
	}
	if rep.Matched != 3 {
		t.Fatalf("limited audit not clean: %s", rep)
	}
}

// TestCompareClassification pins the per-key comparison rules.
func TestCompareClassification(t *testing.T) {
	file := func(size int64) fsapi.StatResult {
		return fsapi.StatResult{Stat: fsapi.Stat{Type: fsapi.TypeFile, Size: size}}
	}
	dir := fsapi.StatResult{Stat: fsapi.Stat{Type: fsapi.TypeDir}}
	absent := fsapi.StatResult{Err: fsapi.ErrNotExist}
	cases := []struct {
		name        string
		cache, dfs  fsapi.StatResult
		large, want bool // want: agreement
	}{
		{"equal files", file(7), file(7), false, true},
		{"both absent", absent, absent, false, true},
		{"missing on dfs", file(7), absent, false, false},
		{"missing in region", absent, file(7), false, false},
		{"kind mismatch", file(0), dir, false, false},
		{"size mismatch", file(7), file(9), false, false},
		{"size ignored for large", file(7), file(9), true, true},
		{"dir sizes ignored", dir, dir, false, true},
	}
	for _, tc := range cases {
		if got := compare(tc.cache, tc.dfs, tc.large) == ""; got != tc.want {
			t.Errorf("%s: agreement=%v, want %v (detail %q)",
				tc.name, got, tc.want, compare(tc.cache, tc.dfs, tc.large))
		}
	}
}

// TestChunksFindsAnOrphan: a file unlinked on the MDS behind the client's
// back — no drop sent — leaves chunks no shard's tree names, and the
// chunk audit reports exactly that inode; a remove through the client
// leaves nothing to report.
func TestChunksFindsAnOrphan(t *testing.T) {
	bus := rpc.NewBus()
	cluster := dfs.NewCluster(bus, vclock.Default(), rootCred, "storage0", []string{"storage1", "storage2"})
	cl := cluster.NewClient("admin", rootCred, 0, 0)
	for _, p := range []string{"/kept", "/removed", "/stranded"} {
		if _, err := cl.Create(0, p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.WriteAt(0, p, 0, []byte("bytes of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Remove(0, "/removed"); err != nil {
		t.Fatal(err)
	}
	gone, err := cluster.MDS.Tree().Remove("/stranded")
	if err != nil {
		t.Fatal(err)
	}
	rep := Chunks(cluster)
	if rep.OrphanChunks != 1 || rep.Matched != 1 || len(rep.Findings) != 1 ||
		rep.Findings[0].Ino != gone.Ino || rep.Findings[0].Verdict != OrphanChunk {
		t.Fatalf("chunk audit: %+v, want the one orphan inode %d", rep, gone.Ino)
	}
	if !strings.Contains(rep.String(), "orphan-chunk") {
		t.Fatalf("report does not name the class: %s", rep)
	}
}
