// Concurrent demonstrates the lock-striped sharded containers and the
// batch hashing API: a sharded map specialized to SSN keys serves
// parallel writers and readers, batch operations amortize lock and
// dispatch costs, and per-shard telemetry rolls up into one merged
// view (probe worst cases taken as maxima across shards, never
// averaged away).
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"

	"github.com/sepe-go/sepe"
)

func main() {
	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		log.Fatal(err)
	}
	hash, err := sepe.Synthesize(format, sepe.Pext)
	if err != nil {
		log.Fatal(err)
	}

	// A sharded map with per-shard metrics in an isolated registry.
	reg := sepe.NewMetricsRegistry()
	m := sepe.NewShardedMap[string](hash.Func(), sepe.WithMetrics(reg, "accounts"))
	fmt.Printf("sharded map over %s: %d shards (GOMAXPROCS=%d)\n",
		hash, m.Shards(), runtime.GOMAXPROCS(0))

	// Parallel writers on disjoint key ranges, readers over everything.
	keys := format.Samples(4000, 1)
	const writers = 4
	var wg sync.WaitGroup
	per := len(keys) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, k := range keys[w*per : (w+1)*per] {
				m.Put(k, fmt.Sprintf("owner-%d/%d", w, i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		hits := 0
		for _, k := range keys {
			if _, ok := m.Get(k); ok {
				hits++
			}
		}
		fmt.Printf("concurrent reader saw %d/%d keys mid-load\n", hits, len(keys))
	}()
	wg.Wait()
	fmt.Printf("after parallel load: Len=%d\n", m.Len())

	// Batch lookups: keys are hashed once, grouped by shard with one
	// counting sort, and each shard's lock is taken once per batch.
	probe := keys[:256]
	vals := make([]string, len(probe))
	found := make([]bool, len(probe))
	m.GetBatch(probe, vals, found)
	hits := 0
	for _, ok := range found {
		if ok {
			hits++
		}
	}
	fmt.Printf("GetBatch over %d keys: %d hits\n", len(probe), hits)

	// Batch hashing alone, for callers that manage their own storage.
	hs := make([]uint64, len(probe))
	hash.HashBatch(probe, hs)
	fmt.Printf("HashBatch: %s -> %#x\n", probe[0], hs[0])

	// Merged stats: per-shard measurements roll up with MaxBucketLen
	// as the max across shards.
	st := m.Stats()
	fmt.Printf("merged stats: size=%d buckets=%d bcoll=%d maxchain=%d\n",
		st.Size, st.Buckets, st.BucketCollisions, st.MaxBucketLen)

	// Per-shard telemetry merged the same way.
	snap := reg.Snapshot()
	merged := sepe.MergeContainerSnapshots("accounts", snap.Containers)
	fmt.Printf("merged telemetry: puts=%d gets=%d probe_p99<=%d probe_max<=%d (from %d shard blocks)\n",
		merged.Puts, merged.Gets, merged.ProbeP99, merged.ProbeMax, len(snap.Containers))
}
