package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// striped-read: stripedWorkers goroutines run 1 put : 7 get against
// one ShardedAdaptiveMap over SSN/Pext, prefilled with 16Ki keys. Puts
// rewrite live keys with their own value and gets draw from a universe
// twice the live set, so the live set never changes and every result
// can be checked without coordinating the workers: a get finds exactly
// the live keys, with their values, and a put never reports a new key.

const (
	stripedLive     = 16 << 10
	stripedUniverse = 32 << 10
	stripedWorkers  = 2
	// probeSlice and probePairs size the paired layer probes of a
	// traced run: alternating slices on two maps, median of the
	// per-pair differences.
	probeSlice = 20 * time.Millisecond
	probePairs = 15
	hotKeys    = 1024
)

// kv is the operation surface shared by the maps the probes compare.
type kv interface {
	Put(key string, val uint64) bool
	Get(key string) (uint64, bool)
}

type stripedOp struct {
	idx int32
	put bool
	ok  bool
	v   uint64
}

type stripedWorker struct {
	r                 *rng
	ops               [blockOps]stripedOp
	lat               []float64
	attempted, failed int64
}

type striped struct {
	u       *universe
	live    []bool
	ah      *sepe.AdaptiveHash
	m       *sepe.ShardedAdaptiveMap[uint64]
	workers []*stripedWorker
}

// mix is the share of puts, in eighths.
type mix int

const (
	getsOnly   mix = 0
	readHeavy  mix = 1 // the workload: 1 put : 7 get
	putsOnly   mix = 8
	eighthMask     = 7
)

func runStriped(cfg config) (*outcome, error) {
	u := newUniverse(keys.SSN, stripedUniverse, stripedLive, cfg.seed)
	live := make([]bool, len(u.keys))
	for _, i := range u.fill {
		live[i] = true
	}
	out := &outcome{layers: metrics{}}
	var s *striped
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.ah.Close()
		}
		s = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setupStriped(u, fmt.Sprintf("striped_read_%d", rep)); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	defer s.ah.Close()
	s.live = live
	backend, err := backendOf(keys.SSN, sepe.Pext)
	if err != nil {
		return nil, err
	}
	out.backends = map[string]string{fnName(keys.SSN, sepe.Pext): backend}
	for w := 0; w < stripedWorkers; w++ {
		s.workers = append(s.workers, &stripedWorker{r: newRNG(cfg.seed ^ uint64(w+1)<<48)})
	}

	if !cfg.trace {
		p := s.phase(cfg.seconds, s.m, readHeavy, false, stripedWorkers, nil, attribution{})
		out.ops, out.wall, out.lat, out.cpu = p.ops, p.wall, p.lat, p.cpu
	} else {
		m := out.layers
		nsPerKey, err := probeLayers(m, cfg.seed)
		if err != nil {
			return nil, err
		}
		st := s.m.Stats()
		m.set("container.bcoll.SSN", "count", float64(st.BucketCollisions))
		m.set("container.max_bucket.SSN", "count", float64(st.MaxBucketLen))
		at := s.probe(m)
		at.hash = nsPerKey[fnName(keys.SSN, sepe.Pext)]

		epoch := time.Now()
		trs := make([]*tracer, stripedWorkers)
		for w := range trs {
			trs[w] = newTracer(epoch, w)
		}
		before := shardBuckets(s.m.ShardStats())
		mallocs0, gcs0 := memCounters()
		un, tp := interleave(cfg.seconds, func(seconds float64, traced bool) phaseResult {
			if traced {
				return s.phase(seconds, s.m, readHeavy, false, stripedWorkers, trs, at)
			}
			return s.phase(seconds, s.m, readHeavy, false, stripedWorkers, nil, attribution{})
		})
		mallocs1, gcs1 := memCounters()
		out.ops, out.wall, out.lat, out.cpu = un.ops, un.wall, un.lat, un.cpu
		after := shardBuckets(s.m.ShardStats())
		grows := 0
		for i := range before {
			if before[i] != after[i] {
				grows++
			}
		}
		ops := float64(tp.ops)
		perWorker := func(p phaseResult) float64 { return p.wall * 1e9 * stripedWorkers / float64(p.ops) }
		l := mergeTracers(trs)
		l.account(m, ops, perWorker(un), perWorker(tp))
		if err := l.write(cfg.outDir, fmt.Sprintf("striped-read-seed%d", cfg.seed)); err != nil {
			return nil, err
		}
		m.set("container.self_ns", "ns", l.self[layerContainer]/ops)
		m.set("container.allocs_per_op", "count", float64(mallocs1-mallocs0)/float64(un.ops+tp.ops))
		m.set("container.grow_count", "count", float64(grows))
		m.set("runtime.gc_per_mkey", "count", float64(gcs1-gcs0)/(float64(un.ops+tp.ops)/1e6))
		m.set("adaptive.swaps", "count", float64(s.ah.Generation()-1))
		out.bypass = []string{"serve.", "container.delete_ns.", "container.put_ns.IPv6", "container.get_ns.IPv6",
			"container.put_ns.INTS", "container.get_ns.INTS", "container.put_ns.URL2", "container.get_ns.URL2",
			"container.bcoll.", "container.max_bucket."}
	}

	for _, w := range s.workers {
		out.attempted += w.attempted
		out.failed += w.failed
	}
	// Final contents: exactly the live set, each key with its value.
	n, bad := 0, s.m.Len() != stripedLive
	for i, k := range u.keys {
		v, ok := s.m.Get(k)
		if ok {
			n++
		}
		bad = bad || ok != live[i] || (ok && v != u.vals[i])
	}
	out.attempted++
	if bad || n != stripedLive {
		out.failed++
	}

	with := heapAfterGC()
	s.m = nil
	out.memMiB = (with - heapAfterGC()) / (1 << 20)
	runtime.KeepAlive(s)
	return out, nil
}

// backendOf is the execution tier a freshly synthesized function of
// the format and family runs on.
func backendOf(t keys.Type, fam sepe.Family) (string, error) {
	f, err := sepe.ParseRegex(t.Regex())
	if err != nil {
		return "", err
	}
	h, err := sepe.Synthesize(f, fam)
	if err != nil {
		return "", err
	}
	return h.Backend().String(), nil
}

// setupStriped is the timed set-up: parse the format, synthesize and
// wrap the adaptive hash, prefill the map.
func setupStriped(u *universe, name string) (*striped, error) {
	f, err := sepe.ParseRegex(u.typ.Regex())
	if err != nil {
		return nil, err
	}
	ah, err := sepe.NewAdaptiveHash(name, f, sepe.Pext, sepe.AdaptiveConfig{})
	if err != nil {
		return nil, err
	}
	s := &striped{u: u, ah: ah, m: sepe.NewShardedMapAdaptive[uint64](ah)}
	for _, i := range u.fill {
		s.m.Put(u.keys[i], u.vals[i])
	}
	return s, nil
}

// attribution is the modeled ns per operation of the layers nested
// inside a map call, measured by the probes.
type attribution struct{ hash, shard, adaptive float64 }

// phase runs workers goroutines of blocks on target until the
// deadline, each with its own tracer when trs is set.
func (s *striped) phase(seconds float64, target kv, mx mix, hot bool, workers int, trs []*tracer, at attribution) phaseResult {
	var p phaseResult
	cpu0 := selfCPU()
	start := time.Now()
	end := deadline(seconds)
	var wg sync.WaitGroup
	counts := make([]int64, workers)
	for _, sw := range s.workers {
		sw.lat = sw.lat[:0]
	}
	for w := 0; w < workers; w++ {
		var tr *tracer
		if trs != nil {
			tr = trs[w]
		}
		wg.Add(1)
		go func(w int, sw *stripedWorker) {
			defer wg.Done()
			for {
				if tr != nil {
					tr.beginUnit()
					tr.begin(layerBench)
				}
				s.gen(sw, mx, hot)
				if tr != nil {
					tr.end()
					tr.begin(layerContainer)
				}
				t0 := time.Now()
				for j := range sw.ops {
					op := &sw.ops[j]
					k := s.u.keys[op.idx]
					if op.put {
						op.ok = target.Put(k, s.u.vals[op.idx])
					} else {
						op.v, op.ok = target.Get(k)
					}
				}
				t1 := time.Now()
				if tr != nil {
					tr.attribute(layerHash, blockOps*at.hash)
					tr.attribute(layerShard, blockOps*at.shard)
					tr.attribute(layerAdaptive, blockOps*at.adaptive)
					tr.end()
					tr.begin(layerBench)
				}
				s.check(sw)
				if tr != nil {
					tr.end()
					tr.end()
				}
				sw.lat = append(sw.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
				counts[w] += blockOps
				if t1.After(end) {
					break
				}
			}
		}(w, s.workers[w])
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.cpu = selfCPU() - cpu0
	for w := 0; w < workers; w++ {
		p.ops += counts[w]
		p.units += counts[w] / blockOps
		p.lat = append(p.lat, s.workers[w].lat...)
	}
	return p
}

// gen draws a block: puts rewrite live keys, gets draw from the whole
// universe. With hot, every key comes from the first hotKeys live keys,
// so that the probes comparing two maps run from cache and the
// difference is not lost in memory-latency noise.
func (s *striped) gen(w *stripedWorker, mx mix, hot bool) {
	live := s.u.fill
	if hot {
		live = live[:hotKeys]
	}
	for j := range w.ops {
		r := w.r.next()
		op := &w.ops[j]
		op.put = int(r&eighthMask) < int(mx)
		if op.put || hot {
			op.idx = live[int((r>>32)*uint64(len(live))>>32)]
		} else {
			op.idx = int32((r >> 32) * uint64(len(s.u.keys)) >> 32)
		}
	}
}

func (s *striped) check(w *stripedWorker) {
	for j := range w.ops {
		op := &w.ops[j]
		live := s.live[op.idx]
		var bad bool
		if op.put {
			bad = op.ok // a rewrite of a live key is never new
		} else {
			bad = op.ok != live || (op.ok && op.v != s.u.vals[op.idx])
		}
		if bad {
			w.failed++
		}
	}
	w.attempted += blockOps
}

// nsPerOp runs one probe slice and returns the wall time per operation
// per worker.
func (s *striped) nsPerOp(target kv, mx mix, hot bool, workers int) float64 {
	p := s.phase(probeSlice.Seconds(), target, mx, hot, workers, nil, attribution{})
	return p.wall * 1e9 * float64(workers) / float64(p.ops)
}

// pairedDiff alternates hot slices on a and b and returns the median
// of the per-pair differences a − b, in ns per operation.
func (s *striped) pairedDiff(a, b kv, mx mix) float64 {
	d := make([]float64, 0, probePairs)
	for i := 0; i < probePairs; i++ {
		d = append(d, s.nsPerOp(a, mx, true, stripedWorkers)-s.nsPerOp(b, mx, true, stripedWorkers))
	}
	return median(d)
}

// probe measures the shard and adaptive layers against copies of the
// map's contents, and the per-kind operation costs on the map itself;
// it returns the attribution for the traced phase.
func (s *striped) probe(m metrics) attribution {
	fn := s.ah.Current()
	sm := sepe.NewShardedMap[uint64](fn)
	plain := sepe.NewMap[uint64](fn)
	for _, i := range s.u.fill {
		sm.Put(s.u.keys[i], s.u.vals[i])
		plain.Put(s.u.keys[i], s.u.vals[i])
	}
	med := func(target kv, mx mix, workers int) float64 {
		xs := make([]float64, 0, probePairs)
		for i := 0; i < probePairs; i++ {
			xs = append(xs, s.nsPerOp(target, mx, false, workers))
		}
		return median(xs)
	}
	var at attribution
	// The plain Map is only read here: concurrent Gets of an
	// unmodified Map are safe.
	at.shard = s.pairedDiff(sm, plain, getsOnly)
	at.adaptive = s.pairedDiff(s.m, sm, readHeavy)
	m.set("adaptive.tick_ns", "ns", at.adaptive)

	get1 := med(sm, getsOnly, 1)
	get2 := med(sm, getsOnly, stripedWorkers)
	m.set("shard.get_ns_1g", "ns", get1)
	m.set("shard.get_ns_2g", "ns", get2)
	m.set("shard.put_ns_2g", "ns", med(sm, putsOnly, stripedWorkers))
	m.set("shard.scale_2g", "ratio", stripedWorkers*get1/get2)
	sizes := sm.ShardStats()
	var maxLen, sum float64
	for _, st := range sizes {
		sum += float64(st.Size)
		maxLen = max(maxLen, float64(st.Size))
	}
	m.set("shard.imbalance", "ratio", maxLen/(sum/float64(len(sizes))))

	// Per-kind cost of one operation on the workload's map, on the
	// workload's goroutine count.
	m.set("container.get_ns.SSN", "ns", med(s.m, getsOnly, stripedWorkers))
	m.set("container.put_ns.SSN", "ns", med(s.m, putsOnly, stripedWorkers))
	runtime.KeepAlive(plain)
	return at
}

func shardBuckets(ss []sepe.TableStats) []int {
	b := make([]int, len(ss))
	for i, s := range ss {
		b[i] = s.Buckets
	}
	return b
}
