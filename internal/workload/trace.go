package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pacon/internal/vclock"
)

// Trace support: a line-oriented operation log that can be replayed
// against any metadata service. Lines look like
//
//	<client> mkdir  /w/dir
//	<client> create /w/dir/f
//	<client> stat   /w/dir/f
//	<client> rm     /w/dir/f
//	<client> readdir /w/dir
//	<client> write  /w/dir/f <bytes>
//	<client> read   /w/dir/f <bytes>
//
// where <client> is a decimal client index and <bytes> at most 1 MiB
// (maxTraceBytes). '#' starts a comment. Traces make custom workloads
// reproducible: capture once, replay against BeeGFS, IndexFS and Pacon.

// maxTraceBytes caps a write's or read's byte count. A trace comes from
// outside the program and a replay allocates each write's payload, on
// every client at once, so an unchecked count is an out-of-memory crash.
const maxTraceBytes = 1 << 20

// TraceOp is one parsed trace line.
type TraceOp struct {
	Client int
	Kind   string
	Path   string
	Bytes  int // write/read payload size
}

// ParseTrace reads a trace stream.
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	var ops []TraceOp
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace line %d: want '<client> <op> <path> [bytes]', got %q", lineNo, line)
		}
		client, err := strconv.Atoi(fields[0])
		if err != nil || client < 0 {
			return nil, fmt.Errorf("trace line %d: bad client index %q", lineNo, fields[0])
		}
		op := TraceOp{Client: client, Kind: fields[1], Path: fields[2]}
		switch op.Kind {
		case "mkdir", "create", "stat", "rm", "rmdir", "readdir":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace line %d: %s takes no extra args", lineNo, op.Kind)
			}
		case "write", "read":
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace line %d: %s needs a byte count", lineNo, op.Kind)
			}
			n, err := strconv.Atoi(fields[3])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("trace line %d: bad byte count %q", lineNo, fields[3])
			}
			if n > maxTraceBytes {
				return nil, fmt.Errorf("trace line %d: byte count %d is over the %d-byte limit", lineNo, n, maxTraceBytes)
			}
			op.Bytes = n
		default:
			return nil, fmt.Errorf("trace line %d: unknown op %q", lineNo, op.Kind)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// TraceResult summarizes a replay.
type TraceResult struct {
	Result
	// PerKind counts executed operations by kind.
	PerKind map[string]int64
	// Errors counts operations that failed (the replay continues; a
	// trace may legitimately contain failing ops, e.g. stat-after-rm).
	Errors int64
}

// ReplayTrace partitions the trace by client index (modulo the client
// count) and replays each client's subsequence in order, concurrently
// across clients. Data ops require FileClients; on a metadata-only
// client they count as errors.
func ReplayTrace(clients []Client, ops []TraceOp) (TraceResult, error) {
	if len(clients) == 0 {
		return TraceResult{}, fmt.Errorf("trace replay needs at least one client")
	}
	perClient := make([][]TraceOp, len(clients))
	for _, op := range ops {
		i := op.Client % len(clients)
		perClient[i] = append(perClient[i], op)
	}
	runner := NewRunner(clients)
	var (
		out   = TraceResult{PerKind: make(map[string]int64)}
		kinds = make([]map[string]int64, len(clients))
		errs  = make([]int64, len(clients))
	)
	res, err := runner.RunPhase(func(idx int, cl Client, now vclock.Time) (vclock.Time, int64, error) {
		counts := make(map[string]int64)
		kinds[idx] = counts
		var done int64
		for _, op := range perClient[idx] {
			var err error
			switch op.Kind {
			case "mkdir":
				now, err = cl.Mkdir(now, op.Path, 0o755)
			case "create":
				now, err = cl.Create(now, op.Path, 0o644)
			case "stat":
				_, now, err = cl.Stat(now, op.Path)
			case "rm":
				now, err = cl.Remove(now, op.Path)
			case "readdir":
				_, now, err = cl.Readdir(now, op.Path)
			case "rmdir":
				rd, ok := cl.(interface {
					Rmdir(vclock.Time, string) (vclock.Time, error)
				})
				if !ok {
					err = fmt.Errorf("client lacks rmdir")
				} else {
					now, err = rd.Rmdir(now, op.Path)
				}
			case "write":
				fc, ok := cl.(FileClient)
				if !ok {
					err = fmt.Errorf("client lacks a data plane")
				} else {
					now, err = fc.WriteAt(now, op.Path, 0, make([]byte, op.Bytes))
				}
			case "read":
				fc, ok := cl.(FileClient)
				if !ok {
					err = fmt.Errorf("client lacks a data plane")
				} else {
					_, now, err = fc.ReadAt(now, op.Path, 0, op.Bytes)
				}
			}
			if err != nil {
				errs[idx]++
			} else {
				counts[op.Kind]++
				done++
			}
		}
		return now, done, nil
	})
	if err != nil {
		return out, err
	}
	out.Result = res
	for i := range clients {
		for k, v := range kinds[i] {
			out.PerKind[k] += v
		}
		out.Errors += errs[i]
	}
	return out, nil
}
