package main

import (
	"strings"
	"testing"
)

func testShell(t *testing.T) *shell {
	t.Helper()
	sh, err := newShell(2, 0, "/w")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.close)
	return sh
}

// run executes a command and fails the test on error.
func run(t *testing.T, sh *shell, line string) string {
	t.Helper()
	out, _, err := sh.exec(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return out
}

func TestShellBasicFlow(t *testing.T) {
	sh := testShell(t)
	run(t, sh, "mkdir out")
	run(t, sh, "create out/result.dat")
	if got := run(t, sh, "write out/result.dat answer=42"); got != "9 bytes" {
		t.Fatalf("write: %q", got)
	}
	if got := run(t, sh, "read out/result.dat"); got != "answer=42" {
		t.Fatalf("read: %q", got)
	}
	if got := run(t, sh, "stat out/result.dat"); !strings.Contains(got, "size=9") {
		t.Fatalf("stat: %q", got)
	}
	if got := run(t, sh, "ls out"); got != "result.dat" {
		t.Fatalf("ls: %q", got)
	}
	if got := run(t, sh, "ls"); got != "out/" {
		t.Fatalf("ls ws: %q", got)
	}
}

func TestShellRemoveAndRmdir(t *testing.T) {
	sh := testShell(t)
	run(t, sh, "mkdir d")
	run(t, sh, "create d/f")
	run(t, sh, "rm d/f")
	if _, _, err := sh.exec("read d/f"); err == nil {
		t.Fatal("read of removed file must fail")
	}
	run(t, sh, "rmdir d")
	if _, _, err := sh.exec("stat d"); err == nil {
		t.Fatal("stat of removed dir must fail")
	}
}

func TestShellStatsAndDrain(t *testing.T) {
	sh := testShell(t)
	run(t, sh, "create f1")
	run(t, sh, "create f2")
	out := run(t, sh, "stats")
	if !strings.Contains(out, "pending ops") || !strings.Contains(out, "cache:") {
		t.Fatalf("stats: %q", out)
	}
	if got := run(t, sh, "drain"); !strings.Contains(got, "drained") {
		t.Fatalf("drain: %q", got)
	}
	out = run(t, sh, "stats")
	if !strings.Contains(out, "queue:  0 pending ops") {
		t.Fatalf("stats after drain: %q", out)
	}
}

func TestShellCheckpointRestoreFail(t *testing.T) {
	sh := testShell(t)
	run(t, sh, "create keep.dat")
	run(t, sh, "write keep.dat precious")
	ck := run(t, sh, "checkpoint")
	if !strings.HasPrefix(ck, "checkpoint ") {
		t.Fatalf("checkpoint: %q", ck)
	}
	seq := strings.Fields(ck)[1]

	run(t, sh, "create volatile.dat")
	if out, _, err := sh.exec("fail nodeX"); err == nil || !strings.Contains(err.Error(), "not part of region") {
		t.Fatalf("fail of a node the region does not have: %q, %v", out, err)
	}
	if out := run(t, sh, "fail node0"); !strings.Contains(out, "lost") {
		t.Fatalf("fail: %q", out)
	}
	run(t, sh, "restore "+seq)
	if got := run(t, sh, "read keep.dat"); got != "precious" {
		t.Fatalf("restored read: %q", got)
	}
	if _, _, err := sh.exec("stat volatile.dat"); err == nil {
		t.Fatal("post-checkpoint file must be gone after restore")
	}
}

func TestShellErrorsAndHelp(t *testing.T) {
	sh := testShell(t)
	if _, _, err := sh.exec("frobnicate"); err == nil {
		t.Fatal("unknown command must error")
	}
	if _, _, err := sh.exec("mkdir"); err == nil {
		t.Fatal("missing argument must error")
	}
	if _, _, err := sh.exec("restore notanumber"); err == nil {
		t.Fatal("bad checkpoint id must error")
	}
	if out := run(t, sh, "help"); !strings.Contains(out, "checkpoint") {
		t.Fatalf("help: %q", out)
	}
	if out := run(t, sh, "time"); !strings.Contains(out, "virtual time") {
		t.Fatalf("time: %q", out)
	}
	if out, quit, _ := sh.exec("quit"); !quit || out != "bye" {
		t.Fatal("quit must quit")
	}
	// Empty lines are no-ops.
	if out, quit, err := sh.exec("   "); out != "" || quit || err != nil {
		t.Fatal("blank line must be a no-op")
	}
}

func TestShellAbsolutePathsAndRedirect(t *testing.T) {
	sh := testShell(t)
	// Absolute path inside the workspace.
	run(t, sh, "create /w/absolute.dat")
	if got := run(t, sh, "ls /w"); !strings.Contains(got, "absolute.dat") {
		t.Fatalf("ls: %q", got)
	}
	// Outside the workspace: redirected to the DFS (permission-checked
	// there). /.pacon is world-writable in the simulation.
	run(t, sh, "create /.pacon/outside.dat")
	if got := run(t, sh, "stat /.pacon/outside.dat"); !strings.Contains(got, "file") {
		t.Fatalf("stat outside: %q", got)
	}
}

func TestShellRename(t *testing.T) {
	sh := testShell(t)
	run(t, sh, "create a.dat")
	run(t, sh, "write a.dat payload")
	run(t, sh, "mv a.dat b.dat")
	if got := run(t, sh, "read b.dat"); got != "payload" {
		t.Fatalf("read after mv: %q", got)
	}
	if _, _, err := sh.exec("stat a.dat"); err == nil {
		t.Fatal("old name must be gone")
	}
}

func TestShellShards(t *testing.T) {
	sh, err := newShell(2, 2, "/w")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.close)
	run(t, sh, "create s1.dat")
	run(t, sh, "create s2.dat")
	run(t, sh, "drain")

	out := run(t, sh, "shards")
	if !strings.Contains(out, "2 metadata shard(s)") || !strings.Contains(out, "subtree-partitioned") {
		t.Fatalf("shards header: %q", out)
	}
	if !strings.Contains(out, "mds0") || !strings.Contains(out, "mds1") {
		t.Fatalf("shards must list every shard: %q", out)
	}
	if !strings.Contains(out, "writes=") || !strings.Contains(out, "util=") {
		t.Fatalf("shards must report op counts and utilization: %q", out)
	}
	// The unsharded shell still answers, with the shared-namespace header.
	sh1 := testShell(t)
	run(t, sh1, "create f.dat")
	if out = run(t, sh1, "shards"); !strings.Contains(out, "shared namespace") {
		t.Fatalf("unsharded shards header: %q", out)
	}
	if out = run(t, sh, "help"); !strings.Contains(out, "shards") {
		t.Fatalf("help missing shards: %q", out)
	}
}

func TestShellHealthAndAudit(t *testing.T) {
	sh := testShell(t)
	run(t, sh, "create h1.dat")
	run(t, sh, "create h2.dat")
	run(t, sh, "drain")

	out := run(t, sh, "health")
	if !strings.Contains(out, "status: ok") {
		t.Fatalf("health on a drained region: %q", out)
	}
	if !strings.Contains(out, "last audit: never ran") {
		t.Fatalf("health before any audit: %q", out)
	}
	if !strings.Contains(out, "\nat risk: 0 acked op(s) the DFS does not have yet\n") {
		t.Fatalf("health of a drained region must say nothing is at risk: %q", out)
	}

	out = run(t, sh, "audit")
	if !strings.Contains(out, "0 divergent") || strings.Contains(out, "0 sampled") {
		t.Fatalf("audit on a drained region: %q", out)
	}
	// The verdict must now show up in health.
	if out = run(t, sh, "health"); !strings.Contains(out, "last audit:") ||
		strings.Contains(out, "never ran") {
		t.Fatalf("health after audit: %q", out)
	}

	// A sample limit caps the audited keys.
	if out = run(t, sh, "audit 1"); !strings.Contains(out, "1 sampled") {
		t.Fatalf("audit 1: %q", out)
	}
	if _, _, err := sh.exec("audit zero"); err == nil {
		t.Fatal("bad audit limit must error")
	}
	if out = run(t, sh, "help"); !strings.Contains(out, "audit") {
		t.Fatalf("help missing audit: %q", out)
	}
}

// TestShellSlowAndTrace drives the read side of the span store: with
// every op sampled, a create and a drain leave one kept span, which
// `slow 0` lists on one line with its critical-path segments and `trace
// SPAN` prints with its cross-node timeline.
func TestShellSlowAndTrace(t *testing.T) {
	sh := testShell(t)
	sh.obs.SetSampleN(1)
	run(t, sh, "create f.dat")
	run(t, sh, "drain")

	slow := run(t, sh, "slow 0")
	var line string
	for _, l := range strings.Split(slow, "\n") {
		if strings.Contains(l, " create /w/f.dat ") {
			line = l
		}
	}
	if line == "" || !strings.Contains(line, "kept=sampled outcome=apply [") ||
		!strings.Contains(line, "queue_wait=") || !strings.Contains(line, "dfs_apply=") {
		t.Fatalf("slow 0 must list the create with its segments: %q", slow)
	}
	span := strings.TrimPrefix(strings.Fields(line)[0], "span=")

	out := run(t, sh, "trace "+span)
	if !strings.HasPrefix(out, line+"\n") {
		t.Fatalf("trace %s must open with the slow log's line %q: %q", span, line, out)
	}
	for _, want := range []string{"start", "enqueue", "dequeue", "apply", "node=node0 ", "srv_recv", "/pacon-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace %s timeline missing %q: %q", span, want, out)
		}
	}
	if out := run(t, sh, "trace 999999"); !strings.Contains(out, "not retained") {
		t.Fatalf("trace of an unknown span: %q", out)
	}
}
