package container

import (
	"fmt"
	"testing"

	"github.com/sepe-go/sepe/internal/hashes"
)

// hookRecorder tracks every hook event plus an incremental B-Coll, the
// way the telemetry layer consumes the hooks.
type hookRecorder struct {
	puts, gets, deletes, rehashes, clears int
	probes                                []int
	bcoll                                 int
}

func (r *hookRecorder) hooks() *Hooks {
	return &Hooks{
		OnPut: func(_ string, probes, delta int) {
			r.puts++
			r.probes = append(r.probes, probes)
			r.bcoll += delta
		},
		OnGet: func(_ string, probes int, found bool) {
			r.gets++
			r.probes = append(r.probes, probes)
		},
		OnDelete: func(_ string, probes, removed, delta int) {
			r.deletes++
			r.bcoll += delta
		},
		OnRehash: func(buckets, bcoll int) {
			r.rehashes++
			r.bcoll = bcoll
		},
		OnClear: func() {
			r.clears++
			r.bcoll = 0
		},
	}
}

// TestHooksTrackBucketCollisions drives a map through inserts, lookups,
// deletes, rehashes and Clear, checking the incrementally-maintained
// B-Coll against Stats' authoritative recount at every step.
func TestHooksTrackBucketCollisions(t *testing.T) {
	rec := &hookRecorder{}
	m := NewMap[int](hashes.STL, nil)
	m.SetHooks(rec.hooks())

	check := func(stage string) {
		t.Helper()
		if got := m.Stats().BucketCollisions; got != rec.bcoll {
			t.Fatalf("%s: incremental B-Coll = %d, recount = %d", stage, rec.bcoll, got)
		}
	}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		m.Put(keys[i], i)
		check("put " + keys[i])
	}
	if rec.rehashes == 0 {
		t.Fatal("300 inserts did not rehash")
	}
	for _, k := range keys[:50] {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("lost %s", k)
		}
	}
	m.Get("absent")
	for _, k := range keys[:100] {
		m.Delete(k)
		check("delete " + k)
	}
	m.Delete("absent")
	check("delete absent")
	m.Clear()
	check("clear")

	if rec.puts != 300 || rec.gets != 51 || rec.deletes != 101 || rec.clears != 1 {
		t.Fatalf("counts: %+v", rec)
	}
}

// TestHooksReplacePath verifies the replace branch reports probe counts
// without inventing a collision.
func TestHooksReplacePath(t *testing.T) {
	rec := &hookRecorder{}
	m := NewMap[int](hashes.STL, nil)
	m.SetHooks(rec.hooks())
	m.Put("a", 1)
	before := rec.bcoll
	m.Put("a", 2) // replace: no new entry, no collision delta
	if rec.bcoll != before {
		t.Fatalf("replace changed B-Coll: %d -> %d", before, rec.bcoll)
	}
	if rec.puts != 2 {
		t.Fatalf("puts = %d", rec.puts)
	}
	if v, _ := m.Get("a"); v != 2 {
		t.Fatalf("value = %d", v)
	}
}

// TestHooksMultiContainers exercises the multi shapes: duplicate keys
// share a bucket, so each duplicate insert is a collision delta.
func TestHooksMultiContainers(t *testing.T) {
	rec := &hookRecorder{}
	mm := NewMultiMap[int](hashes.STL, nil)
	mm.SetHooks(rec.hooks())
	for i := 0; i < 4; i++ {
		mm.Put("dup", i)
	}
	if got := mm.Stats().BucketCollisions; got != rec.bcoll {
		t.Fatalf("multimap B-Coll: incremental %d, recount %d", rec.bcoll, got)
	}
	if got := mm.GetAll("dup"); len(got) != 4 {
		t.Fatalf("GetAll = %v", got)
	}
	if rec.gets != 1 {
		t.Fatalf("GetAll did not fire OnGet: %d", rec.gets)
	}
	mm.Clear()
	if mm.Len() != 0 || rec.bcoll != 0 {
		t.Fatalf("after Clear: len=%d bcoll=%d", mm.Len(), rec.bcoll)
	}

	ms := NewMultiMap[struct{}](hashes.STL, nil)
	rec2 := &hookRecorder{}
	ms.SetHooks(rec2.hooks())
	ms.Insert("x")
	ms.Insert("x")
	if got := ms.Stats().BucketCollisions; got != rec2.bcoll {
		t.Fatalf("multiset B-Coll: incremental %d, recount %d", rec2.bcoll, got)
	}
	ms.Clear()
	if ms.Len() != 0 {
		t.Fatalf("multiset Clear left %d", ms.Len())
	}
}

// TestHooksReserveRehash verifies Reserve fires the rehash hook with an
// exact recount.
func TestHooksReserveRehash(t *testing.T) {
	rec := &hookRecorder{}
	s := NewMap[struct{}](hashes.STL, nil)
	s.SetHooks(rec.hooks())
	for i := 0; i < 10; i++ {
		s.Insert(fmt.Sprintf("k%d", i))
	}
	s.Reserve(1000)
	if rec.rehashes == 0 {
		t.Fatal("Reserve did not fire OnRehash")
	}
	if got := s.Stats().BucketCollisions; got != rec.bcoll {
		t.Fatalf("after Reserve: incremental %d, recount %d", rec.bcoll, got)
	}
}

// TestNilHooksZeroAlloc asserts the disabled-telemetry path allocates
// nothing per operation beyond the table's own storage.
func TestNilHooksZeroAlloc(t *testing.T) {
	m := NewMap[int](hashes.STL, nil)
	m.Reserve(1024)
	for i := 0; i < 512; i++ {
		m.Put(fmt.Sprintf("key-%05d", i), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Get("key-00005")
	})
	if allocs != 0 {
		t.Fatalf("Get with nil hooks allocates %.1f/op", allocs)
	}
}
