package shard

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
)

func TestShardOptions(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {1000, 1024},
	}
	for _, c := range cases {
		if got := resolveShards(c.in); got != c.want {
			t.Errorf("resolveShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if n := resolveShards(0); n&(n-1) != 0 || n < 8 {
		t.Errorf("default shard count %d: want power of two >= 8", n)
	}
	if n := resolveShards(-1); n != resolveShards(0) {
		t.Errorf("resolveShards(-1) = %d, want default %d", n, resolveShards(0))
	}
}

// TestShardRouting pins the top-bit routing: every key must land in
// the shard its hash's high bits name, and a single-shard container
// (shift 64) must route everything to shard 0.
func TestShardRouting(t *testing.T) {
	m := NewStriped[int](hashes.STL, false, 16)
	if m.Shards() != 16 {
		t.Fatalf("Shards() = %d, want 16", m.Shards())
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		h := hashes.STL(k)
		want := int(h >> 60)
		if got := m.shardOf(h); got != want {
			t.Fatalf("shardOf(%q) = %d, want %d (top 4 bits)", k, got, want)
		}
	}
	one := NewStriped[int](hashes.STL, false, 1)
	for i := 0; i < 100; i++ {
		if s := one.shardOf(hashes.STL(fmt.Sprintf("k%d", i))); s != 0 {
			t.Fatalf("single-shard shardOf = %d, want 0", s)
		}
	}
}

// TestMergeStats pins the merge semantics the telemetry fix demands:
// additive sizes/collisions, MAX (not average) of MaxBucketLen.
func TestMergeStats(t *testing.T) {
	parts := []container.Stats{
		{Size: 10, Buckets: 17, BucketCollisions: 2, MaxBucketLen: 3},
		{Size: 20, Buckets: 17, BucketCollisions: 0, MaxBucketLen: 9},
		{Size: 5, Buckets: 17, BucketCollisions: 1, MaxBucketLen: 1},
	}
	got := mergeStats(parts)
	if got.Size != 35 || got.Buckets != 51 || got.BucketCollisions != 3 {
		t.Errorf("additive fields wrong: %+v", got)
	}
	if got.MaxBucketLen != 9 {
		t.Errorf("MaxBucketLen = %d, want max 9 (averaging would report ~4)", got.MaxBucketLen)
	}
}

// TestMergeStatsSingleShard is the regression test for the stats
// merge: with one shard, the merged view must equal a plain container
// fed the identical operations.
func TestMergeStatsSingleShard(t *testing.T) {
	sharded := NewStriped[int](hashes.STL, false, 1)
	plain := container.NewMap[int](hashes.STL, nil)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%03d", i)
		sharded.Put(k, i)
		plain.Put(k, i)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i*3)
		sharded.Delete(k)
		plain.Delete(k)
	}
	if got, want := sharded.Stats(), plain.Stats(); got != want {
		t.Errorf("single-shard merged stats %+v != plain container stats %+v", got, want)
	}
	if got, want := sharded.Len(), plain.Len(); got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
}

func TestBatchMatchesLoop(t *testing.T) {
	keys := make([]string, 300)
	vals := make([]int, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-%03d", i)
		vals[i] = i * 7
	}
	batch := NewStriped[int](hashes.STL, false, 8)
	batch.PutBatch(keys, vals)
	loop := NewStriped[int](hashes.STL, false, 8)
	for i, k := range keys {
		loop.Put(k, vals[i])
	}
	if batch.Len() != loop.Len() {
		t.Fatalf("PutBatch Len %d != looped %d", batch.Len(), loop.Len())
	}
	got := make([]int, len(keys))
	ok := make([]bool, len(keys))
	batch.GetBatch(keys, got, ok)
	for i, k := range keys {
		want, found := loop.Get(k)
		if ok[i] != found || got[i] != want {
			t.Fatalf("GetBatch[%q] = (%d,%v), loop Get = (%d,%v)", k, got[i], ok[i], want, found)
		}
	}
	// Missing keys must come back found=false without disturbing hits.
	mixed := append([]string{"absent-a"}, keys[:5]...)
	mv := make([]int, len(mixed))
	mo := make([]bool, len(mixed))
	batch.GetBatch(mixed, mv, mo)
	if mo[0] {
		t.Errorf("GetBatch reported absent key present")
	}
	for i := 1; i < len(mixed); i++ {
		if !mo[i] || mv[i] != vals[i-1] {
			t.Errorf("GetBatch[%q] = (%d,%v), want (%d,true)", mixed[i], mv[i], mo[i], vals[i-1])
		}
	}
}

func TestSetBatch(t *testing.T) {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("s-%03d", i)
	}
	s := NewStriped[struct{}](hashes.STL, false, 4)
	s.PutBatch(keys, make([]struct{}, len(keys)))
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	probe := append([]string{"missing"}, keys[10:20]...)
	found := make([]bool, len(probe))
	s.GetBatch(probe, make([]struct{}, len(probe)), found)
	if found[0] {
		t.Errorf("GetBatch found a missing key")
	}
	for i := 1; i < len(probe); i++ {
		if !found[i] {
			t.Errorf("GetBatch missed member %q", probe[i])
		}
	}
}

// TestShardedMapParallel hammers one map with writers, readers and
// deleters, then cross-checks the final state against a mutex-guarded
// map[string]int oracle fed the same deterministic operations. Each
// writer owns a disjoint key range, so the final state is independent
// of scheduling. Run under -race this is the data-race probe for the
// whole lock-striping layer.
func TestShardedMapParallel(t *testing.T) {
	const (
		writers = 4
		readers = 3
		perG    = 600
	)
	m := NewStriped[int](hashes.STL, false, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				m.Put(k, w*perG+i)
				if i%3 == 0 {
					m.Delete(k)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-%04d", (r+i)%writers, i)
				if v, ok := m.Get(k); ok {
					// A concurrent read may or may not find the key, but a
					// found value must be the one its owner wrote.
					if want := ((r+i)%writers)*perG + i; v != want {
						t.Errorf("Get(%q) = %d, want %d", k, v, want)
					}
				}
				m.Len() // exercise the multi-shard read path too
			}
		}(r)
	}
	wg.Wait()

	oracle := make(map[string]int)
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("w%d-%04d", w, i)
			oracle[k] = w*perG + i
			if i%3 == 0 {
				delete(oracle, k)
			}
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("final Len = %d, oracle has %d", m.Len(), len(oracle))
	}
	for k, want := range oracle {
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("final Get(%q) = (%d,%v), oracle %d", k, v, ok, want)
		}
	}
	m.ForEach(func(k string, v int) {
		if want, ok := oracle[k]; !ok || v != want {
			t.Errorf("ForEach visited %q=%d not in oracle", k, v)
		}
	})
}

func TestShardedSetParallel(t *testing.T) {
	const gs, perG = 6, 500
	s := NewStriped[struct{}](hashes.STL, false, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-%04d", g, i)
				s.Put(k, struct{}{})
				s.Get(k)
				if i%4 == 0 {
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	oracle := make(map[string]bool)
	for g := 0; g < gs; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-%04d", g, i)
			oracle[k] = true
			if i%4 == 0 {
				delete(oracle, k)
			}
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("final Len = %d, oracle has %d", s.Len(), len(oracle))
	}
	for k := range oracle {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("member %q missing", k)
		}
	}
}

func TestShardedMultiMapParallel(t *testing.T) {
	const gs, perG = 4, 400
	m := NewStriped[int](hashes.STL, true, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-%03d", g, i%50) // 50 keys, many dups
				m.Put(k, i)
				m.Count(k)
				if i%7 == 0 {
					m.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	oracle := make(map[string]int)
	for g := 0; g < gs; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-%03d", g, i%50)
			oracle[k]++
			if i%7 == 0 {
				delete(oracle, k)
			}
		}
	}
	total := 0
	for k, want := range oracle {
		total += want
		if got := m.Count(k); got != want {
			t.Fatalf("Count(%q) = %d, oracle %d", k, got, want)
		}
		if got := len(m.GetAll(k)); got != want {
			t.Fatalf("len(GetAll(%q)) = %d, oracle %d", k, got, want)
		}
	}
	if m.Len() != total {
		t.Fatalf("final Len = %d, oracle total %d", m.Len(), total)
	}
}

func TestShardedMultiSetParallel(t *testing.T) {
	const gs, perG = 4, 400
	s := NewStriped[struct{}](hashes.STL, true, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-%03d", g, i%40)
				s.Put(k, struct{}{})
				s.Count(k)
				if i%9 == 0 {
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	oracle := make(map[string]int)
	for g := 0; g < gs; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-%03d", g, i%40)
			oracle[k]++
			if i%9 == 0 {
				delete(oracle, k)
			}
		}
	}
	total := 0
	for k, want := range oracle {
		total += want
		if got := s.Count(k); got != want {
			t.Fatalf("Count(%q) = %d, oracle %d", k, got, want)
		}
	}
	if s.Len() != total {
		t.Fatalf("final Len = %d, oracle total %d", s.Len(), total)
	}
}

// TestShardedBatchParallel runs concurrent batch producers against
// concurrent batch readers — the lock-per-shard-per-batch path under
// contention.
func TestShardedBatchParallel(t *testing.T) {
	const gs, batch = 4, 128
	m := NewStriped[int](hashes.STL, false, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]string, batch)
			vals := make([]int, batch)
			for round := 0; round < 10; round++ {
				for i := range keys {
					keys[i] = fmt.Sprintf("g%d-r%d-%03d", g, round, i)
					vals[i] = g<<16 | round<<8 | i
				}
				m.PutBatch(keys, vals)
				got := make([]int, batch)
				ok := make([]bool, batch)
				m.GetBatch(keys, got, ok)
				for i := range keys {
					if !ok[i] || got[i] != vals[i] {
						t.Errorf("GetBatch[%q] = (%d,%v) after own PutBatch", keys[i], got[i], ok[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if want := gs * 10 * batch; m.Len() != want {
		t.Fatalf("final Len = %d, want %d", m.Len(), want)
	}
}

// TestShardedMigration drives a whole-container hash swap: all keys
// must remain reachable during and after the per-shard incremental
// drains, under concurrent readers.
func TestShardedMigration(t *testing.T) {
	m := NewStriped[int](hashes.STL, false, 4)
	const n = 800
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%04d", i), i)
	}
	m.BeginMigration(2, hashes.FNV)
	if !m.Migrating() {
		t.Fatal("Migrating() = false right after BeginMigration")
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%04d", (i*7+r)%n)
				if v, ok := m.Get(k); !ok || v != (i*7+r)%n {
					t.Errorf("mid-migration Get(%q) = (%d,%v)", k, v, ok)
					return
				}
			}
		}(r)
	}
	for m.MigrateStep(8) {
	}
	wg.Wait()
	if m.Migrating() {
		t.Fatal("Migrating() = true after drain completed")
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if v, ok := m.Get(k); !ok || v != i {
			t.Fatalf("post-migration Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
	// New writes after the swap must keep working (plain path: the
	// hashed fast-path flag is permanently off).
	if m.hashed.Load() {
		t.Fatal("hashed fast-path flag still set after BeginMigration")
	}
	m.Put("post-swap", 1)
	if v, ok := m.Get("post-swap"); !ok || v != 1 {
		t.Fatalf("post-swap Put/Get = (%d,%v)", v, ok)
	}
}

// TestStaleMigrationLeavesNewest: two elected sweeps can finish out of
// order. When gen 3's sweep runs before a preempted gen 2 sweep, every
// shard must stay on gen 3's function.
func TestStaleMigrationLeavesNewest(t *testing.T) {
	const n = 400
	m := NewStriped[int](hashes.STL, false, 8)
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%04d", i), i)
	}
	f2 := func(string) uint64 { return 0 }
	m.BeginMigration(3, hashes.FNV)
	m.BeginMigration(2, f2)
	for m.MigrateStep(8) {
	}
	for i, tab := range m.tabs {
		if tab.HashOf("probe") != hashes.FNV("probe") {
			t.Fatalf("shard %d left on a stale function", i)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if v, ok := m.Get(k); !ok || v != i {
			t.Fatalf("Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
}

// FuzzShardedMapOps replays a fuzzer-chosen op sequence against a
// builtin-map oracle — sequential, so every divergence is a correctness
// bug in routing, bucketing or migration rather than a race. The high
// bit of shards selects multimap mode. Op 4 swaps the hash mid-stream:
// it begins a migration to the next generation, alternating FNV and
// STL; op 5 drains one migration step.
func FuzzShardedMapOps(f *testing.F) {
	f.Add([]byte("\x00a\x01b\x02a"), uint8(4))
	f.Add([]byte("\x00k\x00k\x02k\x01k"), uint8(1))
	f.Add([]byte("\x00a\x00b\x04x\x01a\x05x\x00c\x01b\x02a\x04x\x00a\x03x"), uint8(2))
	f.Add([]byte("\x00a\x00a\x00b\x04x\x01a\x05\x03\x02a\x00b\x01b\x03x"), uint8(0x83))
	f.Fuzz(func(t *testing.T, ops []byte, shards uint8) {
		multi := shards&0x80 != 0
		m := NewStriped[int](hashes.STL, multi, int(shards%16)+1)
		oracle := make(map[string][]int)
		size := func() int {
			n := 0
			for _, vs := range oracle {
				n += len(vs)
			}
			return n
		}
		check := func(op int, k string) {
			want := oracle[k]
			if multi {
				got := m.GetAll(k)
				slices.Sort(got)
				if !slices.Equal(got, want) || m.Count(k) != len(want) {
					t.Fatalf("op %d: GetAll(%q) = %v Count %d, oracle %v", op, k, got, m.Count(k), want)
				}
				return
			}
			v, ok := m.Get(k)
			if ok != (len(want) > 0) || (ok && v != want[0]) {
				t.Fatalf("op %d: Get(%q) = (%d,%v), oracle %v", op, k, v, ok, want)
			}
		}
		gen := uint64(1)
		for i := 0; i+1 < len(ops); i += 2 {
			op, k := ops[i]%6, fmt.Sprintf("k%d", ops[i+1]%32)
			switch op {
			case 0:
				isNew := m.Put(k, i)
				if want := multi || len(oracle[k]) == 0; isNew != want {
					t.Fatalf("op %d: Put(%q) new=%v, want %v", i, k, isNew, want)
				}
				if multi {
					oracle[k] = append(oracle[k], i) // i only grows: stays sorted
				} else {
					oracle[k] = []int{i}
				}
			case 1:
				check(i, k)
			case 2:
				if got, want := m.Delete(k), len(oracle[k]); got != want {
					t.Fatalf("op %d: Delete(%q) = %d, oracle %d", i, k, got, want)
				}
				delete(oracle, k)
			case 3:
				if m.Len() != size() {
					t.Fatalf("op %d: Len = %d, oracle %d", i, m.Len(), size())
				}
			case 4:
				gen++
				fn := hashes.STL
				if gen%2 == 0 {
					fn = hashes.FNV
				}
				m.BeginMigration(gen, fn)
			case 5:
				m.MigrateStep(int(ops[i+1]%4) + 1)
			}
		}
		if m.Len() != size() {
			t.Fatalf("final Len = %d, oracle %d", m.Len(), size())
		}
		for k := range oracle {
			check(len(ops), k)
		}
		seen := 0
		m.ForEach(func(k string, v int) {
			seen++
			if !slices.Contains(oracle[k], v) {
				t.Fatalf("ForEach visited %q=%d not in oracle", k, v)
			}
		})
		if seen != size() {
			t.Fatalf("ForEach visited %d entries, oracle %d", seen, size())
		}
	})
}
