package sepe

import (
	"sync/atomic"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/shard"
)

// This file exposes the lock-striped concurrent containers. A sharded
// container splits its keys over a power-of-two number of independent
// tables (shards), each guarded by its own RWMutex: writers on
// different shards never contend, readers proceed in parallel within
// a shard. Shard selection uses the top bits of the specialized hash,
// so per-shard bucket probing — which uses the low bits via the prime
// modulus — stays well distributed.
//
// All methods are safe for concurrent use. Whole-container views
// (Len, Stats, ForEach) visit shards one at a time and are not atomic
// snapshots. The batch operations group keys by shard and take each
// shard's lock once per batch, amortizing both lock traffic and the
// per-call hash-closure dispatch.
//
// Bound to an AdaptiveHash, a sharded container also re-buckets
// incrementally when the hash swaps. The migration is per shard: each
// shard runs its own dual-region drain, stepped round-robin by
// subsequent operations, so the post-swap work is spread over both
// time (incremental steps) and shards (bounded step scope), and other
// shards' readers never wait on a draining shard. Shard routing keeps
// using the hash that was active at construction: routing needs only
// determinism and spread, not format fidelity, so it stays correct
// across any number of generation swaps; only bucket probing inside
// each shard follows the active function.

// stripedTick is the adaptive binding of a sharded container: its op
// counter is an atomic shared by every goroutine. A nil ad means the
// container's hash is plain, and no counter is touched.
type stripedTick struct {
	ad  *adaptiveTick
	ops atomic.Uint64
}

func (s *stripedTick) tick(key string) {
	if s.ad != nil {
		s.ad.tick(s.ops.Add(1), key)
	}
}

func (s *stripedTick) tickAll(keys []string) {
	if s.ad != nil {
		for _, k := range keys {
			s.ad.tick(s.ops.Add(1), k)
		}
	}
}

// newStriped builds the striped table behind a sharded container,
// with per-shard metric blocks when opts ask for metrics. The blocks'
// atomic per-op methods make concurrent shard operations safe.
func newStriped[V any](hash HashFunc, multi bool, opts []ContainerOption) *shard.Striped[V] {
	c := resolve(opts)
	s := shard.NewStriped[V](hash, multi, c.shards)
	if c.reg != nil {
		ms := c.reg.NewContainerShards(c.name, s.Shards())
		s.SetShardHooks(func(i int) *container.Hooks { return containerHooks(ms[i]) })
	}
	return s
}

// ShardedMap is the concurrent counterpart of Map.
type ShardedMap[V any] struct {
	s *shard.Striped[V]
	stripedTick
}

// ShardedAdaptiveMap is ShardedMap, kept as a name for existing
// callers of NewShardedMapAdaptive.
type ShardedAdaptiveMap[V any] = ShardedMap[V]

// NewShardedMap returns an empty concurrent map using the given hash
// function.
func NewShardedMap[V any](hash HashFunc, opts ...ContainerOption) *ShardedMap[V] {
	return &ShardedMap[V]{s: newStriped[V](hash, false, opts)}
}

// NewShardedMapAdaptive returns an empty concurrent map bound to h.
func NewShardedMapAdaptive[V any](h *AdaptiveHash, opts ...ContainerOption) *ShardedMap[V] {
	gen, fn := h.a.Variant()
	m := NewShardedMap[V](fn, opts...)
	m.ad = newAdaptiveTick(h.a, gen, m.s)
	return m
}

// Put maps key to val, reporting whether the key was new.
func (m *ShardedMap[V]) Put(key string, val V) bool {
	m.tick(key)
	return m.s.Put(key, val)
}

// Get returns the value mapped to key.
func (m *ShardedMap[V]) Get(key string) (V, bool) {
	m.tick(key)
	return m.s.Get(key)
}

// Delete removes the mapping for key, reporting how many entries were
// removed (0 or 1).
func (m *ShardedMap[V]) Delete(key string) int {
	m.tick(key)
	return m.s.Delete(key)
}

// PutBatch inserts keys[i]→vals[i] for every i, hashing each key once
// and taking each shard's lock once per batch. vals must be at least
// as long as keys.
func (m *ShardedMap[V]) PutBatch(keys []string, vals []V) {
	m.tickAll(keys)
	m.s.PutBatch(keys, vals)
}

// GetBatch looks up every key, writing vals[i], found[i] for keys[i].
// vals and found must be at least as long as keys.
func (m *ShardedMap[V]) GetBatch(keys []string, vals []V, found []bool) {
	m.tickAll(keys)
	m.s.GetBatch(keys, vals, found)
}

// Len returns the total entry count across shards.
func (m *ShardedMap[V]) Len() int { return m.s.Len() }

// ForEach visits every entry, one shard at a time.
func (m *ShardedMap[V]) ForEach(f func(key string, val V)) { m.s.ForEach(f) }

// Stats returns bucket measurements merged across shards: sizes and
// collision counts are summed, MaxBucketLen is the maximum over
// shards (a worst-case bound is not averageable).
func (m *ShardedMap[V]) Stats() TableStats { return m.s.Stats() }

// ShardStats returns each shard's bucket measurements.
func (m *ShardedMap[V]) ShardStats() []TableStats { return m.s.ShardStats() }

// Shards returns the shard count.
func (m *ShardedMap[V]) Shards() int { return m.s.Shards() }

// Reserve pre-sizes every shard so n total entries fit without
// rehashing.
func (m *ShardedMap[V]) Reserve(n int) { m.s.Reserve(n) }

// Clear removes every entry.
func (m *ShardedMap[V]) Clear() { m.s.Clear() }

// Migrating reports whether any shard's re-bucket is in progress.
func (m *ShardedMap[V]) Migrating() bool { return m.s.Migrating() }

// ShardedMultiMap is the concurrent counterpart of MultiMap.
type ShardedMultiMap[V any] struct {
	s *shard.Striped[V]
	stripedTick
}

// NewShardedMultiMap returns an empty concurrent multimap using the
// given hash function.
func NewShardedMultiMap[V any](hash HashFunc, opts ...ContainerOption) *ShardedMultiMap[V] {
	return &ShardedMultiMap[V]{s: newStriped[V](hash, true, opts)}
}

// NewShardedMultiMapAdaptive returns an empty concurrent multimap
// bound to h.
func NewShardedMultiMapAdaptive[V any](h *AdaptiveHash, opts ...ContainerOption) *ShardedMultiMap[V] {
	gen, fn := h.a.Variant()
	m := NewShardedMultiMap[V](fn, opts...)
	m.ad = newAdaptiveTick(h.a, gen, m.s)
	return m
}

// Put adds one key→val entry; duplicates are kept.
func (m *ShardedMultiMap[V]) Put(key string, val V) {
	m.tick(key)
	m.s.Put(key, val)
}

// GetAll returns every value mapped to key.
func (m *ShardedMultiMap[V]) GetAll(key string) []V {
	m.tick(key)
	return m.s.GetAll(key)
}

// Count returns the number of entries for key.
func (m *ShardedMultiMap[V]) Count(key string) int {
	m.tick(key)
	return m.s.Count(key)
}

// Delete removes all entries for key, reporting how many.
func (m *ShardedMultiMap[V]) Delete(key string) int {
	m.tick(key)
	return m.s.Delete(key)
}

// PutBatch adds keys[i]→vals[i] for every i, one lock per shard.
func (m *ShardedMultiMap[V]) PutBatch(keys []string, vals []V) {
	m.tickAll(keys)
	m.s.PutBatch(keys, vals)
}

// Len returns the total entry count.
func (m *ShardedMultiMap[V]) Len() int { return m.s.Len() }

// ForEach visits every entry, one shard at a time.
func (m *ShardedMultiMap[V]) ForEach(f func(key string, val V)) { m.s.ForEach(f) }

// Stats returns merged bucket measurements (see ShardedMap.Stats).
func (m *ShardedMultiMap[V]) Stats() TableStats { return m.s.Stats() }

// ShardStats returns each shard's bucket measurements.
func (m *ShardedMultiMap[V]) ShardStats() []TableStats { return m.s.ShardStats() }

// Shards returns the shard count.
func (m *ShardedMultiMap[V]) Shards() int { return m.s.Shards() }

// Clear removes every entry.
func (m *ShardedMultiMap[V]) Clear() { m.s.Clear() }

// Migrating reports whether any shard's re-bucket is in progress.
func (m *ShardedMultiMap[V]) Migrating() bool { return m.s.Migrating() }
