package sepe

import (
	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// This file re-exposes the repository's std::unordered_* equivalents
// through the public API. Two shapes cover the paper's four: Map is
// std::unordered_map (std::unordered_set as Map[struct{}]) and
// MultiMap is std::unordered_multimap (std::unordered_multiset as
// MultiMap[struct{}]). Each shape comes single-owner (this file) or
// lock-striped (sharded.go), over a plain HashFunc or bound to an
// AdaptiveHash (adaptive.go).

// TableStats exposes bucket measurements of a container: Size,
// Buckets (always prime), BucketCollisions (the paper's B-Coll) and
// MaxBucketLen.
type TableStats = container.Stats

// ContainerOption configures a container.
type ContainerOption func(*containerConfig)

type containerConfig struct {
	shards int
	reg    *MetricsRegistry
	name   string
}

func resolve(opts []ContainerOption) containerConfig {
	var c containerConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithShards fixes a sharded container's shard count, rounded up to a
// power of two. The default (n < 1) sizes the stripe from GOMAXPROCS.
// Single-owner containers ignore it.
func WithShards(n int) ContainerOption {
	return func(c *containerConfig) { c.shards = n }
}

// WithMetrics makes the container's operations feed metric blocks
// registered with r (nil selects the default registry): per-op probe
// depths, rehashes, a running bucket-collision (B-Coll) count, and —
// for adaptive containers — the migration markers
// (sepe_container_migrations_total, the migrating gauge, and
// flight-recorder migrate events). A single-owner container registers
// one block named name; a sharded one registers one block per shard,
// name.shard0 … name.shard<n-1> — merge them with
// MergeContainerSnapshots for a whole-container view.
func WithMetrics(r *MetricsRegistry, name string) ContainerOption {
	if r == nil {
		r = telemetry.Default
	}
	return func(c *containerConfig) { c.reg, c.name = r, name }
}

// ownerTick is the adaptive binding of a single-owner container: its
// op counter is a plain field, so the container's path gains no
// atomic increment. A nil ad means the container's hash is plain.
type ownerTick struct {
	ad  *adaptiveTick
	ops uint64
}

func (o *ownerTick) tick(key string) {
	if o.ad != nil {
		o.ops++
		o.ad.tick(o.ops, key)
	}
}

// Map is a string-keyed hash map with chained buckets, prime growth
// and modulo indexing — the std::unordered_map equivalent of the
// paper's driver. Map[struct{}] is the std::unordered_set equivalent.
// A Map is not safe for concurrent use; see ShardedMap.
type Map[V any] struct {
	t *container.Map[V]
	ownerTick
}

// NewMap returns an empty Map using the given hash function.
func NewMap[V any](hash HashFunc, opts ...ContainerOption) *Map[V] {
	m := &Map[V]{t: container.NewMap[V](hash, nil)}
	m.t.SetHooks(ownerHooks(opts))
	return m
}

// NewMapAdaptive returns an empty Map bound to h: it re-buckets
// incrementally whenever the hash swaps generations.
func NewMapAdaptive[V any](h *AdaptiveHash, opts ...ContainerOption) *Map[V] {
	gen, fn := h.a.Variant()
	m := NewMap[V](fn, opts...)
	m.ad = newAdaptiveTick(h.a, gen, m.t)
	return m
}

// The point operations call the table's hashed entry points directly
// (HashOf inlines to the hash call): with the tick in front, going
// through container.Map's own Put/Get would add a call frame to the
// single-owner hot path.

// Put maps key to val, replacing any existing mapping; it reports
// whether the key was new.
func (m *Map[V]) Put(key string, val V) bool {
	m.tick(key)
	return m.t.PutHashed(m.t.HashOf(key), key, val)
}

// Get returns the value mapped to key.
func (m *Map[V]) Get(key string) (V, bool) {
	m.tick(key)
	return m.t.GetHashed(m.t.HashOf(key), key)
}

// Delete removes the mapping for key, reporting how many entries were
// removed (0 or 1).
func (m *Map[V]) Delete(key string) int {
	m.tick(key)
	return m.t.DeleteHashed(m.t.HashOf(key), key)
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.t.Len() }

// ForEach visits every entry in unspecified order.
func (m *Map[V]) ForEach(f func(key string, val V)) { m.t.ForEach(f) }

// Stats returns bucket measurements (both regions during a migration).
func (m *Map[V]) Stats() TableStats { return m.t.Stats() }

// Reserve pre-sizes the table for n entries, avoiding rehashes during
// bulk loads.
func (m *Map[V]) Reserve(n int) { m.t.Reserve(n) }

// LoadFactor returns entries per bucket.
func (m *Map[V]) LoadFactor() float64 { return m.t.LoadFactor() }

// Clear removes every entry, keeping the bucket array.
func (m *Map[V]) Clear() { m.t.Clear() }

// Migrating reports whether an incremental re-bucket after an
// adaptive hash swap is in progress.
func (m *Map[V]) Migrating() bool { return m.t.Migrating() }

// MultiMap is the std::unordered_multimap equivalent: one key may map
// to several values. MultiMap[struct{}] is the std::unordered_multiset
// equivalent. A MultiMap is not safe for concurrent use; see
// ShardedMultiMap.
type MultiMap[V any] struct {
	t *container.MultiMap[V]
	ownerTick
}

// NewMultiMap returns an empty MultiMap using the given hash function.
func NewMultiMap[V any](hash HashFunc, opts ...ContainerOption) *MultiMap[V] {
	m := &MultiMap[V]{t: container.NewMultiMap[V](hash, nil)}
	m.t.SetHooks(ownerHooks(opts))
	return m
}

// NewMultiMapAdaptive returns an empty MultiMap bound to h.
func NewMultiMapAdaptive[V any](h *AdaptiveHash, opts ...ContainerOption) *MultiMap[V] {
	gen, fn := h.a.Variant()
	m := NewMultiMap[V](fn, opts...)
	m.ad = newAdaptiveTick(h.a, gen, m.t)
	return m
}

// Put adds one key→val entry; duplicates are kept.
func (m *MultiMap[V]) Put(key string, val V) {
	m.tick(key)
	m.t.PutHashed(m.t.HashOf(key), key, val)
}

// GetAll returns every value mapped to key.
func (m *MultiMap[V]) GetAll(key string) []V {
	m.tick(key)
	return m.t.GetAllHashed(m.t.HashOf(key), key)
}

// Count returns the number of entries for key.
func (m *MultiMap[V]) Count(key string) int {
	m.tick(key)
	return m.t.CountHashed(m.t.HashOf(key), key)
}

// Delete removes all entries for key, reporting how many.
func (m *MultiMap[V]) Delete(key string) int {
	m.tick(key)
	return m.t.DeleteHashed(m.t.HashOf(key), key)
}

// Len returns the total entry count.
func (m *MultiMap[V]) Len() int { return m.t.Len() }

// ForEach visits every entry in unspecified order.
func (m *MultiMap[V]) ForEach(f func(key string, val V)) { m.t.ForEach(f) }

// Stats returns bucket measurements.
func (m *MultiMap[V]) Stats() TableStats { return m.t.Stats() }

// Clear removes every entry, keeping the bucket array.
func (m *MultiMap[V]) Clear() { m.t.Clear() }

// Migrating reports whether an incremental re-bucket is in progress.
func (m *MultiMap[V]) Migrating() bool { return m.t.Migrating() }
