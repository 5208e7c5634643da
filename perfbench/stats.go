package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailQuantile is the percentile reported as lat_tail_us: p90, since
// p99 of the striped-read and serve-batch units did not repeat within
// a tenth between runs (2-vCPU host; see README.md).
const tailQuantile = 0.90

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// selfCPU returns the user plus system CPU time of this process.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time of process pid, read
// from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// procHWM returns the peak resident set (VmHWM) of process pid in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// heapAfterGC returns the live heap in bytes after a full collection.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// memCounters snapshots the allocation and GC counters.
func memCounters() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

// rng is the benchmark's own xorshift64* generator for operation
// streams, so inputs depend only on -seed and not on library code.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	// splitmix64 finalizer: distinct seeds give unrelated streams and
	// the state is never zero.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return &rng{s: z ^ z>>31 | 1}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// below returns a value in [0, n) from the high bits of the next draw.
func (r *rng) below(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// shuffled returns a seeded permutation of [0, n).
func shuffled(n int, seed uint64) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	r := newRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := r.below(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// valueOf is the pure function of the key that tables store as its
// value (FNV-1a), so every lookup result can be checked.
func valueOf(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// usSince returns the microseconds elapsed since t.
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// phaseResult is what one timed phase (or slice of one) measured.
type phaseResult struct {
	ops   int64 // key operations
	units int64 // latency units (blocks or requests)
	wall  float64
	lat   []float64
	cpu   float64
}

func (p *phaseResult) add(q phaseResult) {
	p.ops += q.ops
	p.units += q.units
	p.wall += q.wall
	p.lat = append(p.lat, q.lat...)
	p.cpu += q.cpu
}
