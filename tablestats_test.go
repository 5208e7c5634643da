package sepe_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/sepe-go/sepe"
)

// bruteBColl recomputes bucket collisions from first principles: hash
// every live entry (with multiplicity), index modulo the current
// bucket count, and count entries landing in an occupied bucket.
func bruteBColl(hash sepe.HashFunc, entries map[string]int, buckets int) int {
	perBucket := map[int]int{}
	for key, mult := range entries {
		b := int(hash(key) % uint64(buckets))
		perBucket[b] += mult
	}
	coll := 0
	for _, n := range perBucket {
		coll += n - 1
	}
	return coll
}

// conformer is the surface every public container shares.
type conformer[V any] interface {
	Delete(key string) int
	Len() int
	ForEach(f func(key string, val V))
	Stats() sepe.TableStats
	Clear()
	Migrating() bool
}

// subject is one container under test plus its shape-specific calls.
type subject[V any] struct {
	c      conformer[V]
	put    func(key string, val V) bool // reports whether key was new (always true for multis)
	lookup func(key string) []V         // every value mapped to key
	shards func() []sepe.TableStats     // nil for single-owner containers
}

// build constructs the container one of the eight constructors makes:
// {Map, MultiMap} × {single-owner, sharded} × {plain, adaptive}.
// Plain containers hash with fn; adaptive ones bind to ah.
func build[V any](multi, sharded, adaptive bool, fn sepe.HashFunc, ah *sepe.AdaptiveHash, opts []sepe.ContainerOption) subject[V] {
	one := func(v V, ok bool) []V {
		if ok {
			return []V{v}
		}
		return nil
	}
	switch {
	case !multi && !sharded:
		var m *sepe.Map[V]
		if adaptive {
			m = sepe.NewMapAdaptive[V](ah, opts...)
		} else {
			m = sepe.NewMap[V](fn, opts...)
		}
		return subject[V]{c: m, put: m.Put, lookup: func(k string) []V { return one(m.Get(k)) }}
	case multi && !sharded:
		var m *sepe.MultiMap[V]
		if adaptive {
			m = sepe.NewMultiMapAdaptive[V](ah, opts...)
		} else {
			m = sepe.NewMultiMap[V](fn, opts...)
		}
		return subject[V]{c: m, put: func(k string, v V) bool { m.Put(k, v); return true }, lookup: m.GetAll}
	case !multi:
		var m *sepe.ShardedMap[V]
		if adaptive {
			m = sepe.NewShardedMapAdaptive[V](ah, opts...)
		} else {
			m = sepe.NewShardedMap[V](fn, opts...)
		}
		return subject[V]{c: m, put: m.Put, lookup: func(k string) []V { return one(m.Get(k)) }, shards: m.ShardStats}
	default:
		var m *sepe.ShardedMultiMap[V]
		if adaptive {
			m = sepe.NewShardedMultiMapAdaptive[V](ah, opts...)
		} else {
			m = sepe.NewShardedMultiMap[V](fn, opts...)
		}
		return subject[V]{c: m, put: func(k string, v V) bool { m.Put(k, v); return true }, lookup: m.GetAll, shards: m.ShardStats}
	}
}

// sameValues reports whether got and want hold the same values with
// the same multiplicities, in any order.
func sameValues[V comparable](got, want []V) bool {
	if len(got) != len(want) {
		return false
	}
	n := map[V]int{}
	for _, v := range want {
		n[v]++
	}
	for _, v := range got {
		if n[v]--; n[v] < 0 {
			return false
		}
	}
	return true
}

// TestTableStatsAllContainers is the conformance test of the container
// surface: each of the paper's four shapes runs through all eight
// constructors, with and without metrics. Every run is checked against
// a builtin-map oracle and recounts B-Coll from first principles
// (single-owner) or checks the ShardStats merge (sharded), across
// inserts, a forced swap of the adaptive hash with its migration
// drained to completion, deletes, post-swap writes and Clear. Plain
// containers hash with a pinned function, so the swap must leave them
// untouched; adaptive ones must migrate.
func TestTableStatsAllContainers(t *testing.T) {
	t.Run("Map", func(t *testing.T) { conform(t, false, func(i int) int { return i }) })
	t.Run("Set", func(t *testing.T) { conform(t, false, func(int) struct{} { return struct{}{} }) })
	t.Run("MultiMap", func(t *testing.T) { conform(t, true, func(i int) int { return i }) })
	t.Run("MultiSet", func(t *testing.T) { conform(t, true, func(int) struct{} { return struct{}{} }) })
}

func conform[V comparable](t *testing.T, multi bool, val func(int) V) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sharded := range []bool{false, true} {
		for _, adaptive := range []bool{false, true} {
			for _, metrics := range []bool{false, true} {
				name := fmt.Sprintf("sharded=%v/adaptive=%v/metrics=%v", sharded, adaptive, metrics)
				t.Run(name, func(t *testing.T) {
					conformRun(t, f, multi, sharded, adaptive, metrics, val)
				})
			}
		}
	}
}

func conformRun[V comparable](t *testing.T, f *sepe.Format, multi, sharded, adaptive, metrics bool, val func(int) V) {
	cfg := fastAdaptiveCfg()
	// Re-synthesis blocks until Close: the only swap is the forced one.
	cfg.Synthesize = func(ctx context.Context, _ []string) (func(string) uint64, func(string) bool, error) {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	ah, err := sepe.NewAdaptiveHash("conform", f, sepe.Pext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()
	pinned := ah.Current()
	reg := sepe.NewMetricsRegistry()
	var opts []sepe.ContainerOption
	if metrics {
		opts = append(opts, sepe.WithMetrics(reg, "c"))
	}
	s := build[V](multi, sharded, adaptive, pinned, ah, opts)

	oracle := map[string][]V{}
	puts, deletes := 0, 0
	put := func(k string, i int) {
		puts++
		isNew := s.put(k, val(i))
		if want := multi || len(oracle[k]) == 0; isNew != want {
			t.Fatalf("Put(%q) new=%v, want %v", k, isNew, want)
		}
		if multi {
			oracle[k] = append(oracle[k], val(i))
		} else {
			oracle[k] = []V{val(i)}
		}
	}
	check := func(when string) {
		t.Helper()
		st := s.c.Stats()
		size := 0
		counts := map[string]int{}
		for k, vs := range oracle {
			size += len(vs)
			counts[k] = len(vs)
			if got := s.lookup(k); !sameValues(got, vs) {
				t.Fatalf("%s: lookup(%q) = %v, oracle %v", when, k, got, vs)
			}
		}
		if got := s.lookup("absent"); len(got) != 0 {
			t.Fatalf("%s: absent key found: %v", when, got)
		}
		if st.Size != size || s.c.Len() != size {
			t.Fatalf("%s: Size=%d Len=%d, want %d", when, st.Size, s.c.Len(), size)
		}
		seen := 0
		s.c.ForEach(func(k string, v V) {
			seen++
			if !slices.Contains(oracle[k], v) {
				t.Fatalf("%s: ForEach visited %q=%v not in oracle", when, k, v)
			}
		})
		if seen != size {
			t.Fatalf("%s: ForEach visited %d entries, want %d", when, seen, size)
		}
		if st.MaxBucketLen < 0 || (size > 0) != (st.MaxBucketLen > 0) {
			t.Fatalf("%s: MaxBucketLen=%d with %d entries", when, st.MaxBucketLen, size)
		}
		if s.shards != nil {
			var sum sepe.TableStats
			for _, p := range s.shards() {
				sum.Size += p.Size
				sum.Buckets += p.Buckets
				sum.BucketCollisions += p.BucketCollisions
				sum.MaxBucketLen = max(sum.MaxBucketLen, p.MaxBucketLen)
			}
			if sum != st {
				t.Fatalf("%s: Stats %+v, ShardStats merge %+v", when, st, sum)
			}
			return
		}
		probe := pinned
		if adaptive {
			probe = ah.Current()
		}
		if want := bruteBColl(probe, counts, st.Buckets); st.BucketCollisions != want {
			t.Fatalf("%s: BucketCollisions=%d, brute-force recount=%d", when, st.BucketCollisions, want)
		}
	}

	keys := make([]string, 400)
	for i := range keys {
		keys[i] = ssn(i)
		put(keys[i], i)
		if multi && i%3 == 0 {
			put(keys[i], i+1000)
		}
	}
	check("after inserts")

	// Force the swap: off-format keys trip the drift monitor, which
	// installs the fallback function as generation 2.
	for ah.Generation() == 1 {
		ah.Monitor().Observe("not an ssn")
	}
	sawMigrating := false
	for n := 0; n < 64 || s.c.Migrating(); n++ {
		sawMigrating = sawMigrating || s.c.Migrating()
		s.lookup(keys[n%len(keys)])
		if n > 100000 {
			t.Fatal("migration never drained")
		}
	}
	if sawMigrating != adaptive {
		t.Fatalf("migrated=%v after a hash swap, want %v", sawMigrating, adaptive)
	}
	check("after swap")

	for i := 0; i < len(keys); i += 4 {
		deletes++
		if got, want := s.c.Delete(keys[i]), len(oracle[keys[i]]); got != want {
			t.Fatalf("Delete(%q) removed %d, want %d", keys[i], got, want)
		}
		delete(oracle, keys[i])
	}
	for i := len(keys); i < len(keys)+100; i++ {
		put(ssn(i), i)
	}
	deletes++
	s.c.Delete(keys[1]) // structural op: flushes batched op counters
	delete(oracle, keys[1])
	check("after deletes and post-swap puts")

	if metrics {
		blocks := reg.Snapshot().Containers
		want := 1
		if s.shards != nil {
			want = len(s.shards())
		}
		if len(blocks) != want {
			t.Fatalf("metrics: %d blocks registered, want %d", len(blocks), want)
		}
		m := sepe.MergeContainerSnapshots("c", blocks)
		if m.Puts != uint64(puts) || m.Deletes != uint64(deletes) {
			t.Fatalf("metrics: puts=%d deletes=%d, want %d/%d", m.Puts, m.Deletes, puts, deletes)
		}
		if m.BucketCollisions != int64(s.c.Stats().BucketCollisions) {
			t.Fatalf("metrics: running B-Coll %d, Stats recount %d", m.BucketCollisions, s.c.Stats().BucketCollisions)
		}
		if (m.Migrations > 0) != adaptive {
			t.Fatalf("metrics: %d migrations, adaptive=%v", m.Migrations, adaptive)
		}
	}

	s.c.Clear()
	oracle = map[string][]V{}
	check("after Clear")
	if st := s.c.Stats(); st.BucketCollisions != 0 || st.MaxBucketLen != 0 {
		t.Fatalf("after Clear: stats not zeroed: %+v", st)
	}
}

// TestShardedTableStatsMerge pins the public merge semantics of the
// sharded containers' Stats: at shard count 1 the merged view must
// equal a plain container fed identical operations (the regression
// guard for the MaxBucketLen max-vs-average fix), and at any shard
// count the additive fields must sum across ShardStats while
// MaxBucketLen is their maximum.
func TestShardedTableStatsMerge(t *testing.T) {
	hash := sepe.STLHash
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}

	single := sepe.NewShardedMap[int](hash, sepe.WithShards(1))
	plain := sepe.NewMap[int](hash)
	for i, k := range keys {
		single.Put(k, i)
		plain.Put(k, i)
	}
	for i := 0; i < len(keys); i += 3 {
		single.Delete(keys[i])
		plain.Delete(keys[i])
	}
	if got, want := single.Stats(), plain.Stats(); got != want {
		t.Errorf("shard count 1: merged stats %+v != plain container stats %+v", got, want)
	}

	many := sepe.NewShardedMap[int](hash, sepe.WithShards(8))
	for i, k := range keys {
		many.Put(k, i)
	}
	merged := many.Stats()
	var sumSize, sumBuckets, sumColl, maxChain int
	for _, s := range many.ShardStats() {
		sumSize += s.Size
		sumBuckets += s.Buckets
		sumColl += s.BucketCollisions
		if s.MaxBucketLen > maxChain {
			maxChain = s.MaxBucketLen
		}
	}
	if merged.Size != sumSize || merged.Buckets != sumBuckets || merged.BucketCollisions != sumColl {
		t.Errorf("additive fields: merged %+v, shard sums size=%d buckets=%d bcoll=%d",
			merged, sumSize, sumBuckets, sumColl)
	}
	if merged.MaxBucketLen != maxChain {
		t.Errorf("MaxBucketLen: merged %d, max across shards %d (must be max, not average)",
			merged.MaxBucketLen, maxChain)
	}
}
