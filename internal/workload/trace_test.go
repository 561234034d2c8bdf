package workload

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pacon/internal/vclock"
)

const sampleTrace = `# comment line
0 mkdir /w/d
0 create /w/d/f
0 write /w/d/f 128
1 stat /w/d/f
1 read /w/d/f 128
0 readdir /w/d
1 rm /w/d/f
0 rmdir /w/d
`

func TestParseTrace(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{
		{0, "mkdir", "/w/d", 0}, {0, "create", "/w/d/f", 0}, {0, "write", "/w/d/f", 128},
		{1, "stat", "/w/d/f", 0}, {1, "read", "/w/d/f", 128}, {0, "readdir", "/w/d", 0},
		{1, "rm", "/w/d/f", 0}, {0, "rmdir", "/w/d", 0},
	}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("parsed %+v, want %+v", ops, want)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"0 mkdir",                 // missing path
		"x mkdir /w",              // bad client
		"0 frobnicate /w",         // unknown op
		"0 write /w/f",            // missing byte count
		"0 write /w/f many",       // bad byte count
		"0 mkdir /w extra-banana", // extra arg
		// A count the replay would allocate on every client at once.
		"0 write /w/f 1000000000000",
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%q: err = %v, want a parse error naming line 1", c, err)
		}
	}
}

// TestReplayTraceWithoutClients: no clients is an error, not a division
// by zero.
func TestReplayTraceWithoutClients(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader("0 mkdir /w/d\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTrace(nil, ops); err == nil {
		t.Fatal("a replay over no clients succeeded")
	}
}

// FuzzParseTrace: whatever ParseTrace accepts, written back one op a
// line, parses to the same ops; no accepted count exceeds maxTraceBytes;
// and parsing allocates at most a multiple of its input.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(sampleTrace))
	f.Add([]byte("0 write /w/f 1000000000000\n"))
	f.Add([]byte("7 read /w/f 1048576\n3 rm /w/f\r\n# x\n"))
	f.Add([]byte("-1 stat /w\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ops, err := ParseTrace(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(64*len(in)+80<<10); alloc > limit {
			t.Fatalf("a %d-byte trace allocated %d bytes, limit %d", len(in), alloc, limit)
		}
		if err != nil {
			return
		}
		for _, op := range ops {
			if op.Bytes < 0 || op.Bytes > maxTraceBytes {
				t.Fatalf("accepted %+v", op)
			}
		}
		var buf bytes.Buffer
		for _, op := range ops {
			fmt.Fprintf(&buf, "%d %s %s", op.Client, op.Kind, op.Path)
			if op.Kind == "write" || op.Kind == "read" {
				fmt.Fprintf(&buf, " %d", op.Bytes)
			}
			buf.WriteByte('\n')
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("formatted trace does not parse: %v\n%s", err, buf.String())
		}
		if len(again) != len(ops) {
			t.Fatalf("round trip: %d ops, then %d", len(ops), len(again))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("op %d: %+v, then %+v", i, ops[i], again[i])
			}
		}
	})
}

func TestReplayTraceOnPacon(t *testing.T) {
	e := newTestEnv(t)
	region := e.paconRegion(t, []string{"node0", "node1"})
	clients := make([]Client, 2)
	for i := range clients {
		c, err := region.NewClient([]string{"node0", "node1"}[i])
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	ops, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(clients, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Same-path ops split across the two clients race (client 1's stat
	// can run before client 0's create); errors are tolerated but the
	// structural ops by client 0 must succeed.
	if res.PerKind["mkdir"] != 1 || res.PerKind["create"] != 1 {
		t.Fatalf("per-kind = %+v (errors %d)", res.PerKind, res.Errors)
	}
	if res.Ops == 0 || res.Elapsed <= 0 {
		t.Fatalf("result = %+v", res.Result)
	}
}

func TestReplayTraceSingleClientExact(t *testing.T) {
	e := newTestEnv(t)
	clients := []Client{e.cluster.NewClient("node0", appCred, 0, 0)}
	trace := `0 mkdir /w/d
0 create /w/d/a
0 create /w/d/b
0 stat /w/d/a
0 readdir /w/d
0 rm /w/d/a
`
	ops, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTrace(clients, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Ops != 6 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// DFS agrees with the trace's net effect.
	ents, _, err := clients[0].Readdir(vclock.Time(0).Add(res.Elapsed), "/w/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "b" {
		t.Fatalf("final listing = %v, %v", ents, err)
	}
}

func TestReplayTraceDataOpsNeedFileClient(t *testing.T) {
	e := newTestEnv(t)
	region := e.paconRegion(t, []string{"node0"})
	c, err := region.NewClient("node0")
	if err != nil {
		t.Fatal(err)
	}
	// core.Client has a data plane, so write/read succeed.
	ops, _ := ParseTrace(strings.NewReader("0 create /w/f\n0 write /w/f 64\n0 read /w/f 64\n"))
	res, err := ReplayTrace([]Client{c}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.PerKind["write"] != 1 || res.PerKind["read"] != 1 {
		t.Fatalf("res = %+v errors=%d", res.PerKind, res.Errors)
	}
}
