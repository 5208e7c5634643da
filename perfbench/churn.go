package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// table-churn: one goroutine drives 16 plain Maps, one per (format,
// family) pair, with the paper's Inter(0.4,0.3) mix (40% insert, 30%
// search, 30% erase) in blocks of blockOps consecutive operations on
// one table, round-robin over the tables.

const (
	// churnLive is the prefill, and the steady-state size, of each
	// table: keys are drawn uniformly from a universe of churnUniverse,
	// and under 40% insert / 30% erase a key is live with probability
	// 0.4/(0.4+0.3) = 4/7, so 1Ki of 1792 keys stay live. The 16
	// tables and their keys fit one core's 2 MiB L2; README.md says why
	// the tables are not larger.
	churnLive     = 1 << 10
	churnUniverse = 1792
	// sampleEvery: in a traced run, every sampleEvery-th block times
	// each operation on its own, for the per-kind operation costs; it
	// is coprime with the 16 tables so every table is sampled.
	sampleEvery = 31
)

const (
	opPut = iota
	opGet
	opDel
)

var opNames = [3]string{"put", "get", "delete"}

// universe is the key set of one format, with each key's value.
type universe struct {
	typ   keys.Type
	keys  []string
	vals  []uint64
	index map[string]int32
	fill  []int32 // the prefilled keys
}

func newUniverse(t keys.Type, n, live int, seed uint64) *universe {
	u := &universe{typ: t, keys: keys.NewGenerator(t, keys.Uniform, seed).Distinct(n)}
	u.vals = make([]uint64, n)
	u.index = make(map[string]int32, n)
	for i, k := range u.keys {
		u.vals[i] = valueOf(k)
		u.index[k] = int32(i)
	}
	u.fill = shuffled(n, seed^uint64(t)<<40)[:live]
	return u
}

// churnOp is one operation of a block and the result the table gave.
type churnOp struct {
	idx  int32
	kind uint8
	ok   bool
	v    uint64
}

type churnTable struct {
	name    string
	fi      int // format index into churn.us
	m       *sepe.Map[uint64]
	buckets int
}

type churn struct {
	us      []*universe
	tables  []*churnTable
	shadow  [][]bool // per table: key i is live
	live    []int
	backend map[string]string
	r       *rng
	ops     [blockOps]churnOp
	next    int

	attempted, failed int64

	// traced-run counters
	grows   int
	kindSum [][3]float64 // per format and op kind: ns
	kindN   [][3]int
	timerNs float64
}

// hashWrap, when set, wraps every HashFunc handed to the tables; the
// sensitivity test uses it to slow the hash layer.
type hashWrap func(sepe.HashFunc) sepe.HashFunc

func runChurn(cfg config) (*outcome, error) { return runChurnWith(cfg, nil) }

func runChurnWith(cfg config, wrap hashWrap) (*outcome, error) {
	us := make([]*universe, len(churnFormats))
	for i, t := range churnFormats {
		us[i] = newUniverse(t, churnUniverse, churnLive, cfg.seed)
	}
	out := &outcome{layers: metrics{}}
	var c *churn
	for rep := 0; rep < setupReps; rep++ {
		c = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, err = setupChurn(us, wrap); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	out.backends = c.backend
	c.r = newRNG(cfg.seed ^ 0x6368_7572_6e00_0000)

	if !cfg.trace {
		p := c.phase(cfg.seconds, nil, nil)
		out.ops, out.wall, out.lat, out.cpu = p.ops, p.wall, p.lat, p.cpu
	} else {
		nsPerKey, err := probeLayers(out.layers, cfg.seed)
		if err != nil {
			return nil, err
		}
		for fi, u := range us {
			var bcoll, maxb int
			for ti, t := range c.tables {
				if t.fi == fi {
					s := t.m.Stats()
					bcoll += s.BucketCollisions
					maxb = max(maxb, s.MaxBucketLen)
					c.tables[ti].buckets = s.Buckets
				}
			}
			m := out.layers
			m.set("container.bcoll."+u.typ.Name(), "count", float64(bcoll))
			m.set("container.max_bucket."+u.typ.Name(), "count", float64(maxb))
		}
		c.kindSum = make([][3]float64, len(us))
		c.kindN = make([][3]int, len(us))
		c.timerNs = timerCostNs()

		tr := newTracer(time.Now(), 0)
		mallocs0, gcs0 := memCounters()
		un, tp := interleave(cfg.seconds, func(seconds float64, traced bool) phaseResult {
			if traced {
				return c.phase(seconds, tr, nsPerKey)
			}
			return c.phase(seconds, nil, nil)
		})
		mallocs1, gcs1 := memCounters()
		out.ops, out.wall, out.lat, out.cpu = un.ops, un.wall, un.lat, un.cpu
		m := out.layers
		ops := float64(tp.ops)
		l := mergeTracers([]*tracer{tr})
		l.account(m, ops, un.wall*1e9/float64(un.ops), tp.wall*1e9/ops)
		if err := l.write(cfg.outDir, fmt.Sprintf("table-churn-seed%d", cfg.seed)); err != nil {
			return nil, err
		}
		m.set("container.self_ns", "ns", l.self[layerContainer]/ops)
		m.set("container.allocs_per_op", "count", float64(mallocs1-mallocs0)/float64(un.ops+tp.ops))
		m.set("container.grow_count", "count", float64(c.grows))
		m.set("runtime.gc_per_mkey", "count", float64(gcs1-gcs0)/(float64(un.ops+tp.ops)/1e6))
		for fi, u := range us {
			for k := range opNames {
				m.set("container."+opNames[k]+"_ns."+u.typ.Name(), "ns", c.kindSum[fi][k]/float64(c.kindN[fi][k]))
			}
		}
		out.bypass = []string{"shard.", "adaptive.tick_ns", "adaptive.swaps", "serve."}
	}

	c.verify()
	out.attempted, out.failed = c.attempted, c.failed

	with := heapAfterGC()
	for _, t := range c.tables {
		t.m = nil
	}
	out.memMiB = (with - heapAfterGC()) / (1 << 20)
	runtime.KeepAlive(c)
	return out, nil
}

// setupChurn is the timed set-up: parse every format, synthesize every
// function, prefill every table.
func setupChurn(us []*universe, wrap hashWrap) (*churn, error) {
	c := &churn{us: us, backend: map[string]string{}}
	for fi, u := range us {
		f, err := sepe.ParseRegex(u.typ.Regex())
		if err != nil {
			return nil, err
		}
		for _, fam := range sepe.Families {
			h, err := sepe.Synthesize(f, fam)
			if err != nil {
				return nil, fmt.Errorf("synthesize %s: %w", fnName(u.typ, fam), err)
			}
			fn := h.Func()
			if wrap != nil {
				fn = wrap(fn)
			}
			t := &churnTable{name: fnName(u.typ, fam), fi: fi, m: sepe.NewMap[uint64](fn)}
			shadow := make([]bool, len(u.keys))
			for _, i := range u.fill {
				t.m.Put(u.keys[i], u.vals[i])
				shadow[i] = true
			}
			c.tables = append(c.tables, t)
			c.shadow = append(c.shadow, shadow)
			c.live = append(c.live, len(u.fill))
			c.backend[t.name] = h.Backend().String()
		}
	}
	return c, nil
}

// phase runs blocks until the deadline. With a tracer, each block is a
// unit span whose children are the benchmark's own op generation and check
// (bench) and the table calls (container, with hash attributed).
func (c *churn) phase(seconds float64, tr *tracer, nsPerKey map[string]float64) phaseResult {
	var p phaseResult
	cpu0 := selfCPU()
	start := time.Now()
	end := deadline(seconds)
	for block := 1; ; block++ {
		ti := c.next
		c.next = (c.next + 1) % len(c.tables)
		t := c.tables[ti]
		if tr != nil {
			tr.beginUnit()
			tr.begin(layerBench)
		}
		c.gen(ti)
		if tr != nil {
			tr.end()
			tr.begin(layerContainer)
		}
		s := time.Now()
		if tr != nil && block%sampleEvery == 0 {
			c.execTimed(t)
		} else {
			c.exec(t)
		}
		e := time.Now()
		if tr != nil {
			tr.attribute(layerHash, blockOps*nsPerKey[t.name])
			tr.end()
			tr.begin(layerBench)
		}
		c.check(ti)
		if tr != nil {
			tr.end()
			tr.end()
			if b := int(math.Round(float64(t.m.Len()) / t.m.LoadFactor())); b != t.buckets {
				c.grows++
				t.buckets = b
			}
		}
		p.lat = append(p.lat, float64(e.Sub(s).Nanoseconds())/1e3)
		p.ops += blockOps
		p.units++
		if e.After(end) {
			break
		}
	}
	p.wall = time.Since(start).Seconds()
	p.cpu = selfCPU() - cpu0
	return p
}

// gen draws the next block's operations for table ti.
func (c *churn) gen(ti int) {
	n := len(c.us[c.tables[ti].fi].keys)
	for j := range c.ops {
		r := c.r.next()
		c.ops[j].idx = int32((r >> 32) * uint64(n) >> 32)
		switch p := r & 1023; {
		case p < 410: // 0.4
			c.ops[j].kind = opPut
		case p < 717: // 0.3
			c.ops[j].kind = opGet
		default:
			c.ops[j].kind = opDel
		}
	}
}

// exec performs the block on the table, recording each result.
func (c *churn) exec(t *churnTable) {
	u := c.us[t.fi]
	for j := range c.ops {
		op := &c.ops[j]
		switch op.kind {
		case opPut:
			op.ok = t.m.Put(u.keys[op.idx], u.vals[op.idx])
		case opGet:
			op.v, op.ok = t.m.Get(u.keys[op.idx])
		default:
			op.ok = t.m.Delete(u.keys[op.idx]) == 1
		}
	}
}

// execTimed is exec with every operation timed, net of the clock.
func (c *churn) execTimed(t *churnTable) {
	u := c.us[t.fi]
	for j := range c.ops {
		op := &c.ops[j]
		s := time.Now()
		switch op.kind {
		case opPut:
			op.ok = t.m.Put(u.keys[op.idx], u.vals[op.idx])
		case opGet:
			op.v, op.ok = t.m.Get(u.keys[op.idx])
		default:
			op.ok = t.m.Delete(u.keys[op.idx]) == 1
		}
		c.kindSum[t.fi][op.kind] += float64(time.Since(s).Nanoseconds()) - c.timerNs
		c.kindN[t.fi][op.kind]++
	}
}

// check replays the block against the shadow key set in order: a put
// reports a new key exactly when the key was absent, a get finds the
// key's value exactly when it is live, a delete removes exactly when
// it is live.
func (c *churn) check(ti int) {
	u := c.us[c.tables[ti].fi]
	shadow := c.shadow[ti]
	for j := range c.ops {
		op := &c.ops[j]
		live := shadow[op.idx]
		bad := false
		switch op.kind {
		case opPut:
			bad = op.ok == live
			if !live {
				c.live[ti]++
			}
			shadow[op.idx] = true
		case opGet:
			bad = op.ok != live || (live && op.v != u.vals[op.idx])
		default:
			bad = op.ok != live
			if live {
				c.live[ti]--
			}
			shadow[op.idx] = false
		}
		if bad {
			c.failed++
		}
	}
	c.attempted += blockOps
}

// verify compares each table's final length and contents with its
// shadow; each table counts as one attempted check.
func (c *churn) verify() {
	for ti, t := range c.tables {
		u := c.us[t.fi]
		seen, bad := 0, t.m.Len() != c.live[ti]
		t.m.ForEach(func(k string, v uint64) {
			seen++
			i, ok := u.index[k]
			if !ok || !c.shadow[ti][i] || v != u.vals[i] {
				bad = true
			}
		})
		if bad || seen != c.live[ti] {
			c.failed++
		}
		c.attempted++
	}
}

// timerCostNs is the median cost of the clock-read pair that times one
// operation.
func timerCostNs() float64 {
	xs := make([]float64, 0, 1001)
	for i := 0; i < 1001; i++ {
		s := time.Now()
		xs = append(xs, float64(time.Since(s).Nanoseconds()))
	}
	return median(xs)
}
