package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pacon/internal/fsapi"
	"pacon/internal/wire"
)

// TestServerConcurrentShards hammers the sharded store from many
// goroutines — Set/Get/mutate deletes over disjoint per-goroutine key
// ranges — while full-table sweeps (FlushAll, Scan, Stats) run
// concurrently. The sweeps lock one shard at a time, never the world, so
// they must tolerate racing mutations; the per-key operations must stay
// linearizable per key regardless. Run under -race via make check.
func TestServerConcurrentShards(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow})
	const (
		workers = 8
		keys    = 64
		rounds  = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reply := wire.NewEncoder(0)
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("/w%d/k%d", w, k)
					val := fmt.Sprintf("v%d.%d", w, r)
					cas, _, err := s.Set(0, key, []byte(val), uint32(r))
					if err != nil {
						t.Errorf("set %s: %v", key, err)
						return
					}
					item, _, err := s.Get(0, key)
					// A racing FlushAll may legitimately evict the key
					// between our Set and Get; absence is fine, a stale
					// value is not (keys are worker-private, so any
					// surviving item must be our latest write).
					if err == nil && item.CAS >= cas && string(item.Value) != val {
						t.Errorf("get %s: cas %d value %q, want %q", key, item.CAS, item.Value, val)
						return
					}
					if r%8 == 0 {
						reply.Reset()
						s.mutate(0, mutateBody(key, delIf(uint64(len(val)))), reply)
					}
				}
			}
		}(w)
	}
	// Sweeper: full-table operations racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			s.Scan(func(key string, value []byte) bool {
				if len(key) == 0 || len(value) == 0 {
					t.Errorf("scan saw key %q value %q", key, value)
				}
				return true
			})
			_ = s.Stats()
			if r%16 == 0 {
				s.FlushAll(0)
			}
		}
	}()
	wg.Wait()
}

// TestServerConcurrentRevokeNoResurrection races a conditional delete — a
// mutate_multi row that deletes the key if it still holds the loaded seq,
// as eviction's deletes it if clean — against a writer's cas that replaces
// the entry a load added. Whichever order the shard serializes them in,
// the writer's value must survive: either the delete lands first (the cas
// finds nothing, and the writer's retry adds) or it lands second and the
// row keeps the key. A delete that took the writer's value would destroy
// the primary copy of an acked write; the row's read and the delete share
// one shard-lock hold, so there is no window between them for the cas to
// fall into.
func TestServerConcurrentRevokeNoResurrection(t *testing.T) {
	s := testServer(ServerConfig{Row: testRow})
	frame := func(key string) []byte {
		e := wire.NewEncoder(32)
		e.Uvarint(1)
		e.String(key)
		e.Blob(delIf(0))
		return e.Bytes()
	}
	const rounds = 200
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("/k%d", r)
		loaded, err := s.store(key, makeVal(0), 0, storeAdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		dirty := makeVal(uint64(r) + 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _, err := s.CAS(0, key, dirty, 0, loaded)
			if errors.Is(err, fsapi.ErrNotExist) {
				_, _, err = s.Add(0, key, dirty, 0) // the delete won: the path is free
			}
			if err != nil {
				t.Errorf("writer: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := s.mutateMulti(0, frame(key), wire.NewEncoder(0)); err != nil {
				t.Errorf("delete: %v", err)
			}
		}()
		wg.Wait()
		item, _, err := s.Get(0, key)
		if err != nil || !bytes.Equal(item.Value, dirty) {
			t.Fatalf("round %d: after the race value=%x err=%v, want the writer's dirty value", r, item.Value, err)
		}
	}
}

// TestServerGetMultiDuringFlush checks that the batched read path and a
// concurrent FlushAll interleave without a global pause: get_multi
// walks shards one at a time, so a flush racing it may hide any subset
// of the keys but must never corrupt a returned item.
func TestServerGetMultiDuringFlush(t *testing.T) {
	s := testServer(ServerConfig{})
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("/m/k%d", i)
		if _, _, err := s.Set(0, keys[i], []byte(keys[i]), 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.FlushAll(0)
			for _, k := range keys {
				_, _, _ = s.Set(0, k, []byte(k), 0)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		res, _ := s.GetMulti(0, keys)
		for j, r := range res {
			if r.Hit && string(r.Item.Value) != keys[j] {
				t.Fatalf("get_multi[%d] = %q, want %q", j, r.Item.Value, keys[j])
			}
		}
	}
	wg.Wait()
}

// TestFlushAllKeepsTheByteCount: stores racing FlushAll leave the byte
// count equal to what is resident. Two writers store over 64 keys while
// FlushAll runs; once they have stopped, the count must equal the bytes
// Scan finds. A flush that zeroes the count after clearing its shards
// erases the bytes of any store that lands in an already-cleared shard
// meanwhile — the server then holds more than its capacity allows, and the
// count drifts below the real total as those items are deleted.
func TestFlushAllKeepsTheByteCount(t *testing.T) {
	const cycles, flushes = 200, 50
	s := testServer(ServerConfig{})
	val := make([]byte, 48)
	for c := 0; c < cycles; c++ {
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					s.Set(0, fmt.Sprintf("/k%d", (i*2+w)%64), val[:i%len(val)], 0)
				}
			}()
		}
		for i := 0; i < flushes; i++ {
			s.FlushAll(0)
		}
		stop.Store(true)
		wg.Wait()
		var resident int64
		s.Scan(func(key string, value []byte) bool {
			resident += itemBytes(key, value)
			return true
		})
		if used := s.Stats().UsedBytes; used != resident {
			t.Fatalf("cycle %d: the count reads %d bytes, %d are resident", c, used, resident)
		}
	}
}
