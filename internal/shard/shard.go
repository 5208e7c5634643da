// Package shard implements the lock-striped concurrent container. A
// Striped table splits its keys over a power-of-two number of
// independent chained-bucket tables, each guarded by its own RWMutex,
// so writers on different shards never contend and readers proceed in
// parallel within a shard. One generic type serves all four of the
// paper's shapes: a multi table is a multimap, and sets are tables of
// struct{}.
//
// Shard selection uses the TOP bits of the specialized hash:
//
//	shard := hash >> (64 - log2(shards))
//
// The per-shard tables keep indexing buckets from the full hash
// modulo a prime, which depends on the low bits — so routing and
// probing consume disjoint ends of the word and a function that mixes
// either end spreads load at both levels. (A low-bit shard selector
// would alias with the modulo and starve buckets, the same low-mixing
// failure RQ7 studies for containers.)
//
// The hash is computed once per operation, outside any lock, and
// handed to the shard's table through the container package's
// *Hashed entry points. The batch operations (PutBatch, GetBatch)
// additionally group keys by shard with one counting sort and take
// each shard's lock once per batch instead of once per key.
//
// Lock ordering: no operation holds more than one shard lock at a
// time. Whole-container operations (Len, Stats, Clear, ForEach,
// batches) visit shards in ascending index, releasing each lock
// before taking the next, so they compose without deadlock — at the
// cost of not being atomic snapshots across shards.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
)

// maxShards bounds the automatic sizing; an explicit count may exceed
// it.
const maxShards = 512

// resolveShards rounds n up to a power of two; n < 1 sizes the stripe
// from GOMAXPROCS: four stripes per processor keeps the probability of
// two running goroutines colliding on a shard low without making
// whole-container sweeps expensive.
func resolveShards(n int) int {
	if n < 1 {
		return min(max(nextPow2(4*runtime.GOMAXPROCS(0)), 8), maxShards)
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// shardLock is one stripe's RWMutex, padded to a cache line so
// adjacent stripes' lock words do not false-share.
//
//sepe:lockrank 50
type shardLock struct {
	sync.RWMutex
	_ [40]byte
}

// stripe is the value-independent half of a striped table: the
// routing hash, the stripe of locks, and the migration flags. Its
// methods are not generic, so shardOf compiles — and is checked
// inlinable — on its own rather than per instantiation.
type stripe struct {
	router hashes.Func
	shift  uint
	locks  []shardLock

	// hashed is true while every shard's table still hashes with
	// router, so the *Hashed fast path may reuse the routing hash for
	// probing. The first BeginMigration clears it permanently: after a
	// hash swap only the tables know their current function.
	hashed atomic.Bool

	// cursor round-robins MigrateStep over the shards.
	cursor atomic.Uint64
}

// Striped is the concurrent std::unordered_* equivalent: a lock-striped
// set of chained-bucket tables. Index i of tabs is guarded by locks[i].
// All methods are safe for concurrent use. Whole-container views (Len,
// Stats, ForEach) visit shards one lock at a time and are not atomic
// snapshots.
type Striped[V any] struct {
	stripe
	tabs []*container.Table[V]
}

// NewStriped returns an empty striped table over hash with the given
// shard count (rounded up to a power of two; n < 1 selects the
// GOMAXPROCS-based default). A multi table keeps duplicate keys.
func NewStriped[V any](hash hashes.Func, multi bool, n int) *Striped[V] {
	n = resolveShards(n)
	s := &Striped[V]{tabs: make([]*container.Table[V], n)}
	s.router, s.shift, s.locks = hash, uint(64-log2(n)), make([]shardLock, n)
	for i := range s.tabs {
		s.tabs[i] = container.NewTable[V](hash, nil, multi)
	}
	s.hashed.Store(true)
	return s
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// shardOf routes a hash to its shard by the top bits. For a single
// shard shift is 64 and the expression is constant zero (Go defines
// over-wide shifts as 0, unlike C).
//
//sepe:noalloc inline
func (s *stripe) shardOf(h uint64) int { return int(h >> s.shift) }

// probe returns the hash t probes key with: the routing hash h while
// every table still hashes with the router, else t's own current
// function. Callers hold t's shard lock.
func (s *Striped[V]) probe(t *container.Table[V], h uint64, key string) uint64 {
	if s.hashed.Load() {
		return h
	}
	return t.HashOf(key)
}

// Shards returns the shard count.
func (s *stripe) Shards() int { return len(s.locks) }

// Put maps key to val, reporting whether the key was new; a multi
// table always appends.
func (s *Striped[V]) Put(key string, val V) bool {
	h := s.router(key)
	i := s.shardOf(h)
	s.locks[i].Lock()
	t := s.tabs[i]
	isNew := t.PutHashed(s.probe(t, h, key), key, val)
	s.locks[i].Unlock()
	return isNew
}

// Get returns the first value mapped to key.
func (s *Striped[V]) Get(key string) (V, bool) {
	h := s.router(key)
	i := s.shardOf(h)
	s.locks[i].RLock()
	t := s.tabs[i]
	v, ok := t.GetHashed(s.probe(t, h, key), key)
	s.locks[i].RUnlock()
	return v, ok
}

// Count returns the number of entries for key.
func (s *Striped[V]) Count(key string) int {
	h := s.router(key)
	i := s.shardOf(h)
	s.locks[i].RLock()
	t := s.tabs[i]
	n := t.CountHashed(s.probe(t, h, key), key)
	s.locks[i].RUnlock()
	return n
}

// GetAll returns every value mapped to key.
func (s *Striped[V]) GetAll(key string) []V {
	h := s.router(key)
	i := s.shardOf(h)
	s.locks[i].RLock()
	t := s.tabs[i]
	vs := t.GetAllHashed(s.probe(t, h, key), key)
	s.locks[i].RUnlock()
	return vs
}

// Delete removes every entry for key, reporting how many went away.
func (s *Striped[V]) Delete(key string) int {
	h := s.router(key)
	i := s.shardOf(h)
	s.locks[i].Lock()
	t := s.tabs[i]
	n := t.DeleteHashed(s.probe(t, h, key), key)
	s.locks[i].Unlock()
	return n
}

// group computes each key's routing hash into hs and builds a
// permutation ordering the keys by shard: order holds indices into
// keys, and keys order[start[s]:start[s+1]] belong to shard s. One
// counting sort — no per-shard slice allocations.
func (s *stripe) group(keys []string, hs []uint64) (order []int32, start []int32) {
	n := len(s.locks)
	start = make([]int32, n+1)
	for i, k := range keys {
		h := s.router(k)
		hs[i] = h
		start[s.shardOf(h)+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	order = make([]int32, len(keys))
	fill := make([]int32, n)
	copy(fill, start[:n])
	for i := range keys {
		sh := s.shardOf(hs[i])
		order[fill[sh]] = int32(i)
		fill[sh]++
	}
	return order, start
}

// PutBatch puts keys[i]→vals[i] for every i, grouping the keys by
// shard so each shard's lock is taken once per batch rather than once
// per key. Within a shard the batch applies in key order; across
// shards the order is unspecified (shards are independent key sets,
// so for a non-multi table the final state is order-independent).
func (s *Striped[V]) PutBatch(keys []string, vals []V) {
	vals = vals[:len(keys)]
	hs := make([]uint64, len(keys))
	order, start := s.group(keys, hs)
	for sh, t := range s.tabs {
		lo, hi := start[sh], start[sh+1]
		if lo == hi {
			continue
		}
		s.locks[sh].Lock()
		for _, i := range order[lo:hi] {
			t.PutHashed(s.probe(t, hs[i], keys[i]), keys[i], vals[i])
		}
		s.locks[sh].Unlock()
	}
}

// GetBatch looks up every key, writing vals[i], found[i] for keys[i].
// Like PutBatch it takes each shard's read lock once per batch.
func (s *Striped[V]) GetBatch(keys []string, vals []V, found []bool) {
	vals = vals[:len(keys)]
	found = found[:len(keys)]
	hs := make([]uint64, len(keys))
	order, start := s.group(keys, hs)
	for sh, t := range s.tabs {
		lo, hi := start[sh], start[sh+1]
		if lo == hi {
			continue
		}
		s.locks[sh].RLock()
		for _, i := range order[lo:hi] {
			vals[i], found[i] = t.GetHashed(s.probe(t, hs[i], keys[i]), keys[i])
		}
		s.locks[sh].RUnlock()
	}
}

// Len returns the total entry count across shards.
func (s *Striped[V]) Len() int {
	n := 0
	for i, t := range s.tabs {
		s.locks[i].RLock()
		n += t.Len()
		s.locks[i].RUnlock()
	}
	return n
}

// Stats returns bucket measurements merged across shards (sizes and
// collision counts summed, MaxBucketLen the maximum).
func (s *Striped[V]) Stats() container.Stats { return mergeStats(s.ShardStats()) }

// ShardStats returns each shard's bucket measurements.
func (s *Striped[V]) ShardStats() []container.Stats {
	out := make([]container.Stats, len(s.tabs))
	for i, t := range s.tabs {
		s.locks[i].RLock()
		out[i] = t.Stats()
		s.locks[i].RUnlock()
	}
	return out
}

// ForEach visits every entry, one shard at a time. Entries inserted
// or removed concurrently in shards not yet visited may or may not be
// seen. Each shard is snapshotted under its read lock and f runs on
// the snapshot after the lock is released, so f may freely call back
// into the table (including mutating it) without self-deadlocking and
// never stalls concurrent writers.
func (s *Striped[V]) ForEach(f func(key string, val V)) {
	for i, t := range s.tabs {
		var keys []string
		var vals []V
		collect := func(key string, val V) {
			keys = append(keys, key)
			vals = append(vals, val)
		}
		s.locks[i].RLock()
		t.ForEach(collect)
		s.locks[i].RUnlock()
		for j, k := range keys {
			f(k, vals[j])
		}
	}
}

// Reserve pre-sizes every shard so that n total entries fit without
// rehashing, assuming an even spread.
func (s *Striped[V]) Reserve(n int) {
	per := n/len(s.tabs) + 1
	for i, t := range s.tabs {
		s.locks[i].Lock()
		t.Reserve(per)
		s.locks[i].Unlock()
	}
}

// Clear removes every entry.
func (s *Striped[V]) Clear() {
	for i, t := range s.tabs {
		s.locks[i].Lock()
		t.Clear()
		s.locks[i].Unlock()
	}
}

// SetShardHooks installs per-shard observation hooks: f is called
// once per shard index and may return distinct hook blocks (per-shard
// telemetry) or the same one. A nil f removes all hooks. f runs
// before the shard's lock is taken — user code never executes under a
// shard lock.
func (s *Striped[V]) SetShardHooks(f func(shard int) *container.Hooks) {
	for i, t := range s.tabs {
		var h *container.Hooks
		if f != nil {
			h = f(i)
		}
		s.locks[i].Lock()
		t.SetHooks(h)
		s.locks[i].Unlock()
	}
}

// BeginMigration starts an incremental re-bucket of every shard under
// newHash, the function of generation gen: each shard opens its own
// dual-region migration and drains independently, so the per-step
// work stays bounded by one shard's buckets. A shard already at gen or
// newer ignores the call, so sweeps that finish out of order leave
// every shard on the newest function. Keys do not move between shards
// — routing keeps using the original hash, which stays correct
// (routing needs only determinism and spread) while probing inside
// each shard switches to the new function.
func (s *Striped[V]) BeginMigration(gen uint64, newHash hashes.Func) {
	s.hashed.Store(false)
	for i, t := range s.tabs {
		s.locks[i].Lock()
		t.BeginMigration(gen, newHash)
		s.locks[i].Unlock()
	}
}

// MigrateStep drains up to k retired buckets from the next shard in
// round-robin order, returning true while any shard is still
// migrating.
func (s *Striped[V]) MigrateStep(k int) bool {
	i := int(s.cursor.Add(1)-1) % len(s.tabs)
	s.locks[i].Lock()
	more := s.tabs[i].MigrateStep(k)
	s.locks[i].Unlock()
	return more || s.Migrating()
}

// Migrating reports whether any shard's migration is in progress.
func (s *Striped[V]) Migrating() bool {
	for i, t := range s.tabs {
		s.locks[i].RLock()
		mg := t.Migrating()
		s.locks[i].RUnlock()
		if mg {
			return true
		}
	}
	return false
}

// mergeStats folds per-shard bucket measurements into one Stats
// block: sizes, bucket counts and collision counts are additive
// across disjoint shards, while MaxBucketLen is a worst-case measure
// and must take the maximum — averaging it would report a probe bound
// no shard actually guarantees.
func mergeStats(parts []container.Stats) container.Stats {
	var out container.Stats
	for _, s := range parts {
		out.Size += s.Size
		out.Buckets += s.Buckets
		out.BucketCollisions += s.BucketCollisions
		out.MaxBucketLen = max(out.MaxBucketLen, s.MaxBucketLen)
	}
	return out
}
