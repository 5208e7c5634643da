package container

import "github.com/sepe-go/sepe/internal/hashes"

// Kind names the four container shapes the paper's driver runs
// (Section 4's "Structure" parameter).
type Kind int

const (
	// MapKind corresponds to std::unordered_map.
	MapKind Kind = iota
	// SetKind corresponds to std::unordered_set.
	SetKind
	// MultiMapKind corresponds to std::unordered_multimap.
	MultiMapKind
	// MultiSetKind corresponds to std::unordered_multiset.
	MultiSetKind
)

// Kinds lists all four in the paper's order.
var Kinds = []Kind{MapKind, SetKind, MultiMapKind, MultiSetKind}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MapKind:
		return "Map"
	case SetKind:
		return "Set"
	case MultiMapKind:
		return "MultiMap"
	case MultiSetKind:
		return "MultiSet"
	default:
		return "Kind?"
	}
}

// Stats exposes the bucket measurements the experiments record.
type Stats struct {
	// Size is the number of stored entries.
	Size int
	// Buckets is the current bucket count (always prime).
	Buckets int
	// BucketCollisions counts keys sharing a bucket with an earlier
	// key — the paper's B-Coll measurement.
	BucketCollisions int
	// MaxBucketLen is the longest chain.
	MaxBucketLen int
}

// Container is the uniform driver interface over the four shapes:
// insert / search / erase with std::unordered_* semantics.
type Container interface {
	Insert(key string)
	Search(key string) bool
	Delete(key string) int
	Len() int
	Stats() Stats
}

// New builds a container of the given kind over a hash function; a nil
// indexer selects the libstdc++ modulo policy. Sets are maps and
// multisets multimaps of struct{}.
func New(k Kind, hash hashes.Func, index Indexer) Container {
	switch k {
	case MapKind:
		return NewMap[int](hash, index)
	case SetKind:
		return NewMap[struct{}](hash, index)
	case MultiMapKind:
		return NewMultiMap[int](hash, index)
	case MultiSetKind:
		return NewMultiMap[struct{}](hash, index)
	default:
		panic("container: unknown kind")
	}
}

// Map is the std::unordered_map equivalent (std::unordered_set as
// Map[struct{}]).
type Map[V any] struct{ Table[V] }

// NewMap returns an empty map using the given hash and indexer.
func NewMap[V any](hash hashes.Func, index Indexer) *Map[V] {
	m := new(Map[V])
	m.init(hash, index, false)
	return m
}

// Put maps key to val, replacing any existing mapping; it reports
// whether the key was new.
func (m *Map[V]) Put(key string, val V) bool { return m.PutHashed(m.hash(key), key, val) }

// Get returns the value mapped to key.
func (m *Map[V]) Get(key string) (V, bool) { return m.GetHashed(m.hash(key), key) }

// MultiMap is the std::unordered_multimap equivalent: one key may map
// to several values (std::unordered_multiset as MultiMap[struct{}]).
type MultiMap[V any] struct{ Table[V] }

// NewMultiMap returns an empty multimap.
func NewMultiMap[V any](hash hashes.Func, index Indexer) *MultiMap[V] {
	m := new(MultiMap[V])
	m.init(hash, index, true)
	return m
}

// Put adds one key→val entry (duplicates allowed).
func (m *MultiMap[V]) Put(key string, val V) { m.PutHashed(m.hash(key), key, val) }

// GetAll returns every value mapped to key.
func (m *MultiMap[V]) GetAll(key string) []V { return m.GetAllHashed(m.hash(key), key) }

// Count returns the number of entries for key.
func (m *MultiMap[V]) Count(key string) int { return m.CountHashed(m.hash(key), key) }
