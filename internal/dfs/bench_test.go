package dfs

import (
	"fmt"
	"testing"
	"time"

	"pacon/internal/fsapi"
	"pacon/internal/rpc"
	"pacon/internal/vclock"
)

// benchClient deploys a cluster on the Bus (one MDS for shards == 1, a
// sharded pool otherwise) with /w prepared, and returns a client shaped
// like Pacon's commit clients: a long dentry TTL, so after the first
// call ancestor resolution is a cache hit and the timed loop is the
// request path itself.
func benchClient(b *testing.B, shards int, dataNodes ...string) *Client {
	b.Helper()
	var c *Cluster
	if shards == 1 {
		c = NewCluster(rpc.NewBus(), vclock.Default(), rootCred, "storage0", dataNodes)
	} else {
		c = NewClusterSharded(rpc.NewBus(), vclock.Default(), rootCred, "storage0", shards, []string{"/w"}, dataNodes)
	}
	if _, err := c.NewClient("admin", rootCred, 0, 0).Mkdir(0, "/w", 0o777); err != nil {
		b.Fatal(err)
	}
	cl := c.NewClient("node0", appCred, 4096, time.Hour)
	if _, _, err := cl.Stat(0, "/w"); err != nil {
		b.Fatal(err)
	}
	return cl
}

func benchPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/f%07d", i)
	}
	return paths
}

// BenchmarkCreate is one singleton mutation end to end — the shape of a
// client-side synchronous create and of WriteAt's size bump. make
// alloc-gate pins its allocs/op and B/op: a one-op batch may cost at
// most its reply over what the namespace tree allocates for the inode.
func BenchmarkCreate(b *testing.B) {
	cl := benchClient(b, 1)
	paths := benchPaths(b.N)
	st := fsapi.NewFileStat(appCred, 0o644)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.CreateWithStat(0, paths[i], st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatch1 is the DFS leg of a commit wave that holds a lone
// op — every wave at CommitBatchSize 1, every second one on an
// mdtest-like mix: one create per ApplyBatch. make alloc-gate pins it at
// BenchmarkCreate plus the one-element result: a batch of one must reach
// the wire the way the singleton does, with no grouping buffers.
func BenchmarkApplyBatch1(b *testing.B) {
	cl := benchClient(b, 1)
	paths := benchPaths(b.N)
	ops := []fsapi.BatchOp{{Kind: fsapi.BatchCreate, Stat: fsapi.NewFileStat(appCred, 0o644)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops[0].Path = paths[i]
		errs, _, err := cl.ApplyBatch(0, ops)
		if err != nil || errs[0] != nil {
			b.Fatal(err, errs[0])
		}
	}
}

// BenchmarkApplyBatchRemove1 is a lone remove of a small file with bytes
// through ApplyBatch, its drop_multi to the one data server holding them
// included. make alloc-gate pins it: the drop is grouped on the stack and
// sent from a pooled encoder, so it adds nothing to the remove's own
// allocations.
func BenchmarkApplyBatchRemove1(b *testing.B) {
	cl := benchClient(b, 1, "storage1", "storage2", "storage3")
	paths := benchPaths(b.N)
	st := fsapi.NewFileStat(appCred, 0o644)
	st.Size = 64
	data := make([]byte, st.Size)
	ops := []fsapi.BatchOp{{Kind: fsapi.BatchCreate, Stat: st}}
	for _, p := range paths {
		ops[0].Path = p
		if errs, _, _ := cl.ApplyBatch(0, ops); errs[0] != nil {
			b.Fatal(errs[0])
		}
		if errs, _, _ := cl.WriteBatch(0, []fsapi.FileWrite{{Path: p, Ino: ops[0].Ino, Data: data}}); errs[0] != nil {
			b.Fatal(errs[0])
		}
	}
	ops[0] = fsapi.BatchOp{Kind: fsapi.BatchRemove}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops[0].Path = paths[i]
		errs, _, err := cl.ApplyBatch(0, ops)
		if err != nil || errs[0] != nil || ops[0].Ino == 0 {
			b.Fatal(err, errs[0], ops[0].Ino)
		}
	}
}

// BenchmarkApplyBatch8 is one commit wave's DFS leg: eight creates in
// one call, on one MDS (one group, one round trip) and over four shards
// (grouping plus a fan-out, which on the Bus spawns no goroutine). make
// alloc-gate pins the one-MDS allocs/op.
func BenchmarkApplyBatch8(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl := benchClient(b, shards)
			paths := benchPaths(8 * b.N)
			st := fsapi.NewFileStat(appCred, 0o644)
			ops := make([]fsapi.BatchOp, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ops {
					ops[j] = fsapi.BatchOp{Kind: fsapi.BatchCreate, Path: paths[8*i+j], Stat: st}
				}
				errs, _, err := cl.ApplyBatch(0, ops)
				if err != nil || errs[7] != nil {
					b.Fatal(err, errs[7])
				}
			}
		})
	}
}

// BenchmarkStatBatch16 is the bulk miss-load's DFS leg: sixteen
// siblings resolved in one stat_batch round trip.
func BenchmarkStatBatch16(b *testing.B) {
	cl := benchClient(b, 1)
	paths := benchPaths(16)
	for _, p := range paths {
		if _, err := cl.Create(0, p, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := cl.StatBatch(0, paths)
		if err != nil || res[15].Err != nil {
			b.Fatal(err, res[15].Err)
		}
	}
}
