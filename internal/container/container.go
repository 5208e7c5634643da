// Package container implements the hash-indexed containers the paper's
// driver exercises: string-keyed equivalents of std::unordered_map,
// unordered_set, unordered_multimap and unordered_multiset.
//
// The implementation mirrors the aspects of libstdc++ that the paper's
// measurements depend on:
//
//   - chained buckets with the bucket chosen as hash % bucket_count
//     (so even poorly-mixed hashes spread across buckets, the effect
//     RQ7 investigates);
//   - prime bucket counts growing roughly geometrically, rehashing
//     when the load factor would exceed 1;
//   - bucket introspection, so the driver can count bucket collisions
//     exactly as the paper does ("we iterate over the buckets logging
//     the number of keys inside the same bucket").
//
// The Indexer hook reproduces RQ7's "low-mixing container": an indexer
// that discards low-order hash bits before the modulo.
package container

import "github.com/sepe-go/sepe/internal/hashes"

// Indexer maps a 64-bit hash to a bucket in [0, buckets).
type Indexer func(hash uint64, buckets int) int

// ModIndexer is the libstdc++ policy: hash % buckets.
func ModIndexer(hash uint64, buckets int) int {
	return int(hash % uint64(buckets))
}

// HighBitsIndexer returns RQ7's low-mixing policy: the low `discard`
// bits of the hash are dropped before the modulo, so only the
// 64-discard most significant bits select the bucket.
func HighBitsIndexer(discard uint) Indexer {
	return func(hash uint64, buckets int) int {
		return int((hash >> discard) % uint64(buckets))
	}
}

// Hooks observes table operations for the telemetry layer. Every
// field is optional; a table with a nil Hooks pointer pays exactly one
// pointer comparison per operation and allocates nothing, so the
// containers stay measurement-grade when observation is off. The
// callbacks receive the operated-on key plus plain ints —
// implementations must not retain the key or allocate on the hot path
// (the telemetry layer's exemplars copy a key only when it sets a new
// maximum).
//
// Probe counts are the number of chain entries examined by the
// operation — the runtime counterpart of the offline MaxBucketLen
// measurement. Collision deltas maintain the paper's B-Coll
// incrementally: +1 when an insert lands in an occupied bucket,
// negative when an erase shortens a shared chain, and an exact recount
// after each rehash (OnRehash's second argument).
type Hooks struct {
	// OnPut fires after an insert or replace of key: probes entries
	// were examined, and the bucket-collision count changed by
	// collDelta (0 or 1).
	OnPut func(key string, probes, collDelta int)
	// OnGet fires after a lookup of key (get, count, multimap GetAll).
	OnGet func(key string, probes int, found bool)
	// OnDelete fires after an erase of key: probes entries examined,
	// removed entries deleted, collision count changed by collDelta
	// (≤ 0).
	OnDelete func(key string, probes, removed, collDelta int)
	// OnRehash fires after the table rebuckets (growth or reserve),
	// with the new bucket count and an exact bucket-collision recount.
	OnRehash func(buckets, bucketCollisions int)
	// OnClear fires after the table is emptied.
	OnClear func()
	// OnMigrateStart fires when BeginMigration retires the current
	// region: retired buckets will drain into fresh new ones.
	OnMigrateStart func(retired, fresh int)
	// OnMigrateDone fires when the last retired bucket has drained,
	// before the completion recount's OnRehash.
	OnMigrateDone func(buckets int)
}

// initialBuckets is the starting bucket count (libstdc++ starts at a
// small prime).
const initialBuckets = 13

// entry is one key/value pair in a bucket chain.
type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

// Table is the chained-bucket core behind Map and MultiMap, and the
// per-shard table of the striped containers in internal/shard. A multi
// table keeps duplicate keys (multimap semantics); any other table
// replaces an existing mapping on insert.
//
// During a live migration (BeginMigration) the table holds two bucket
// regions: `buckets` indexed by the new hash function, and `old`
// indexed by the retired one. Operations consult both; each drain
// step moves a few old buckets across, so a container can swap hash
// functions under load without a stop-the-world rehash.
type Table[V any] struct {
	hash    hashes.Func
	index   Indexer
	buckets [][]entry[V]
	size    int
	multi   bool
	hooks   *Hooks
	gen     uint64 // generation of hash, as tagged by BeginMigration

	// Migration state: nil/empty when no migration is in progress.
	oldHash  hashes.Func
	old      [][]entry[V]
	drainPos int
}

// NewTable returns an empty table over hash; a nil indexer selects the
// libstdc++ modulo policy.
func NewTable[V any](hash hashes.Func, index Indexer, multi bool) *Table[V] {
	t := new(Table[V])
	t.init(hash, index, multi)
	return t
}

func (t *Table[V]) init(hash hashes.Func, index Indexer, multi bool) {
	if index == nil {
		index = ModIndexer
	}
	t.hash, t.index, t.multi = hash, index, multi
	t.buckets = make([][]entry[V], initialBuckets)
}

func (t *Table[V]) bucketOf(h uint64) int { return t.index(h, len(t.buckets)) }

// oldBucket returns the retired-region chain for key, with the hash
// the chain's entries were stored under. Only valid while migrating.
func (t *Table[V]) oldBucket(key string) (*[]entry[V], uint64) {
	oh := t.oldHash(key)
	return &t.old[t.index(oh, len(t.old))], oh
}

// HashOf returns key's hash under the table's current function.
func (t *Table[V]) HashOf(key string) uint64 { return t.hash(key) }

// The *Hashed entry points take the key's hash from the caller: the
// sharded layer routes a key to a shard with the top bits of its hash
// and must not pay for hashing twice. The contract is strict: h must
// equal HashOf(key) — the chains compare stored hashes before keys,
// and the bucket index is derived from h. Passing any other value
// silently corrupts lookups.

// PutHashed inserts key→val under its precomputed hash h. Non-multi
// tables replace an existing mapping and report whether the key was
// new; multi tables always append.
func (t *Table[V]) PutHashed(h uint64, key string, val V) bool {
	b := t.bucketOf(h)
	if !t.multi {
		chain := t.buckets[b]
		for i := range chain {
			if chain[i].hash == h && chain[i].key == key {
				chain[i].val = val
				if t.hooks != nil && t.hooks.OnPut != nil {
					t.hooks.OnPut(key, i+1, 0)
				}
				return false
			}
		}
		if t.old != nil {
			// The key may still live in the retired region; replacing
			// it there (instead of appending a shadowing entry) keeps
			// the table duplicate-free through the migration.
			ochain, oh := t.oldBucket(key)
			for i := range *ochain {
				if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
					(*ochain)[i].val = val
					if t.hooks != nil && t.hooks.OnPut != nil {
						t.hooks.OnPut(key, len(chain)+i+1, 0)
					}
					return false
				}
			}
		}
	}
	before := len(t.buckets[b])
	t.buckets[b] = append(t.buckets[b], entry[V]{hash: h, key: key, val: val})
	t.size++
	if t.hooks != nil && t.hooks.OnPut != nil {
		probes := before
		if t.multi {
			probes = 0 // multi inserts append without scanning
		}
		delta := 0
		if before > 0 {
			delta = 1
		}
		t.hooks.OnPut(key, probes, delta)
	}
	if t.size > len(t.buckets) { // max load factor 1, as libstdc++
		t.rehash(nextBucketCount(len(t.buckets)))
	}
	return true
}

// GetHashed returns the first value mapped to key (stored under hash h).
func (t *Table[V]) GetHashed(h uint64, key string) (V, bool) {
	chain := t.buckets[t.bucketOf(h)]
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			if t.hooks != nil && t.hooks.OnGet != nil {
				t.hooks.OnGet(key, i+1, true)
			}
			return chain[i].val, true
		}
	}
	probes := len(chain)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		for i := range *ochain {
			if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
				if t.hooks != nil && t.hooks.OnGet != nil {
					t.hooks.OnGet(key, probes+i+1, true)
				}
				return (*ochain)[i].val, true
			}
		}
		probes += len(*ochain)
	}
	if t.hooks != nil && t.hooks.OnGet != nil {
		t.hooks.OnGet(key, probes, false)
	}
	var zero V
	return zero, false
}

// CountHashed returns the number of entries with the given key.
func (t *Table[V]) CountHashed(h uint64, key string) int {
	chain := t.buckets[t.bucketOf(h)]
	n := 0
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			n++
		}
	}
	probes := len(chain)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		for i := range *ochain {
			if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
				n++
			}
		}
		probes += len(*ochain)
	}
	if t.hooks != nil && t.hooks.OnGet != nil {
		t.hooks.OnGet(key, probes, n > 0)
	}
	return n
}

// GetAllHashed returns every value mapped to key (multimap GetAll).
func (t *Table[V]) GetAllHashed(h uint64, key string) []V {
	chain := t.buckets[t.bucketOf(h)]
	var out []V
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			out = append(out, chain[i].val)
		}
	}
	probes := len(chain)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		for i := range *ochain {
			if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
				out = append(out, (*ochain)[i].val)
			}
		}
		probes += len(*ochain)
	}
	if t.hooks != nil && t.hooks.OnGet != nil {
		t.hooks.OnGet(key, probes, len(out) > 0)
	}
	return out
}

// delFrom erases key (stored under hash h) from one bucket chain,
// returning entries examined, entries removed, and the bucket-collision
// delta.
func delFrom[V any](bucket *[]entry[V], h uint64, key string) (probes, removed, collDelta int) {
	chain := *bucket
	kept := chain[:0]
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			removed++
			continue
		}
		kept = append(kept, chain[i])
	}
	if removed > 0 {
		// Clear the tail so removed values do not pin memory.
		for i := len(kept); i < len(chain); i++ {
			chain[i] = entry[V]{}
		}
		*bucket = kept
	}
	before, after := len(chain)-1, len(chain)-removed-1
	if before < 0 {
		before = 0
	}
	if after < 0 {
		after = 0
	}
	return len(chain), removed, after - before
}

// DeleteHashed removes all entries with the given key, returning how
// many were removed (erase(key) semantics of the unordered containers).
func (t *Table[V]) DeleteHashed(h uint64, key string) int {
	probes, removed, collDelta := delFrom(&t.buckets[t.bucketOf(h)], h, key)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		p, r, c := delFrom(ochain, oh, key)
		probes += p
		removed += r
		collDelta += c
	}
	t.size -= removed
	if t.hooks != nil && t.hooks.OnDelete != nil {
		t.hooks.OnDelete(key, probes, removed, collDelta)
	}
	return removed
}

func (t *Table[V]) rehash(n int) {
	old := t.buckets
	t.buckets = make([][]entry[V], n)
	for _, chain := range old {
		for _, e := range chain {
			b := t.bucketOf(e.hash)
			t.buckets[b] = append(t.buckets[b], e)
		}
	}
	if t.hooks != nil && t.hooks.OnRehash != nil {
		// Rebucketing invalidates any incremental collision tracking;
		// hand the observer an exact recount (O(buckets), dwarfed by
		// the O(n) rehash itself).
		t.hooks.OnRehash(len(t.buckets), t.bucketCollisions())
	}
}

// Reserve grows the table so that n entries fit without rehashing
// (std::unordered_map::reserve).
func (t *Table[V]) Reserve(n int) {
	if n <= len(t.buckets) {
		return
	}
	t.rehash(nextPrime(n))
}

// BeginMigration starts a live migration to newHash, the function of
// generation gen. The current buckets become the retired region; a
// fresh region sized for the table's population is indexed by newHash.
// Entries move over incrementally via MigrateStep, so no single
// operation pays an O(n) rehash; lookups and erases consult both
// regions until the migration drains.
//
// A migration whose generation is not newer than the table's own is
// ignored: two sweeps that finish out of order cannot move the table
// back to an older function.
func (t *Table[V]) BeginMigration(gen uint64, newHash hashes.Func) {
	if gen <= t.gen {
		return
	}
	t.gen = gen
	if t.old != nil {
		// A migration is already in flight: finish it first so the
		// table never holds three generations of buckets.
		t.MigrateStep(len(t.old))
	}
	t.oldHash = t.hash
	t.old = t.buckets
	t.drainPos = 0
	t.hash = newHash
	n := 2*t.size + 1
	if n < initialBuckets {
		n = initialBuckets
	}
	t.buckets = make([][]entry[V], nextPrime(n))
	if t.hooks != nil && t.hooks.OnMigrateStart != nil {
		t.hooks.OnMigrateStart(len(t.old), len(t.buckets))
	}
}

// MigrateStep moves up to k retired buckets into the live region,
// returning true while the migration is still in progress. Each moved
// entry's hash is recomputed under the new function.
func (t *Table[V]) MigrateStep(k int) bool {
	if t.old == nil {
		return false
	}
	for ; k > 0 && t.drainPos < len(t.old); k-- {
		chain := t.old[t.drainPos]
		t.old[t.drainPos] = nil
		t.drainPos++
		for _, e := range chain {
			e.hash = t.hash(e.key)
			b := t.bucketOf(e.hash)
			t.buckets[b] = append(t.buckets[b], e)
		}
	}
	if t.drainPos < len(t.old) {
		return true
	}
	// Migration complete: drop the retired region and let observers
	// recount, exactly as after a normal rehash.
	t.old, t.oldHash, t.drainPos = nil, nil, 0
	if t.hooks != nil && t.hooks.OnMigrateDone != nil {
		t.hooks.OnMigrateDone(len(t.buckets))
	}
	if t.hooks != nil && t.hooks.OnRehash != nil {
		t.hooks.OnRehash(len(t.buckets), t.bucketCollisions())
	}
	if t.size > len(t.buckets) {
		t.rehash(nextBucketCount(len(t.buckets)))
	}
	return false
}

// Migrating reports whether a live migration is in progress.
func (t *Table[V]) Migrating() bool { return t.old != nil }

// LoadFactor returns size/buckets (std::unordered_map::load_factor).
func (t *Table[V]) LoadFactor() float64 {
	return float64(t.size) / float64(len(t.buckets))
}

// Clear removes every entry, keeping the bucket array. Any in-flight
// migration ends: the retired region is dropped with the entries.
func (t *Table[V]) Clear() {
	for i := range t.buckets {
		t.buckets[i] = nil
	}
	t.old, t.oldHash, t.drainPos = nil, nil, 0
	t.size = 0
	if t.hooks != nil && t.hooks.OnClear != nil {
		t.hooks.OnClear()
	}
}

// bucketCollisions counts keys sharing a bucket with an earlier key:
// Σ max(0, len(bucket)−1), the paper's B-Coll measurement.
func (t *Table[V]) bucketCollisions() int {
	n := 0
	for _, region := range [2][][]entry[V]{t.buckets, t.old} {
		for _, chain := range region {
			n += max(0, len(chain)-1)
		}
	}
	return n
}

// Stats returns bucket measurements; MaxBucketLen is the longest
// chain, a worst-case probe measure.
func (t *Table[V]) Stats() Stats {
	st := Stats{Size: t.size, Buckets: len(t.buckets), BucketCollisions: t.bucketCollisions()}
	for _, region := range [2][][]entry[V]{t.buckets, t.old} {
		for _, chain := range region {
			st.MaxBucketLen = max(st.MaxBucketLen, len(chain))
		}
	}
	return st
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.size }

// SetHooks installs (or, with nil, removes) observation hooks.
func (t *Table[V]) SetHooks(h *Hooks) { t.hooks = h }

// Insert implements Container with a zero value.
func (t *Table[V]) Insert(key string) { var zero V; t.PutHashed(t.hash(key), key, zero) }

// Search implements Container.
func (t *Table[V]) Search(key string) bool { _, ok := t.GetHashed(t.hash(key), key); return ok }

// Delete removes all entries for key, reporting how many went away.
func (t *Table[V]) Delete(key string) int { return t.DeleteHashed(t.hash(key), key) }

// ForEach visits every entry in unspecified order.
func (t *Table[V]) ForEach(f func(key string, val V)) {
	for _, region := range [2][][]entry[V]{t.buckets, t.old} {
		for _, chain := range region {
			for i := range chain {
				f(chain[i].key, chain[i].val)
			}
		}
	}
}

// nextBucketCount returns the next prime ≥ 2n+1, the growth policy of
// libstdc++'s prime rehash policy.
func nextBucketCount(n int) int {
	return nextPrime(2*n + 1)
}

func nextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !isPrime(n) {
		n += 2
	}
	return n
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
