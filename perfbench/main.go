// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the public surface of sepe, checks
// every output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload table-churn --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and what it predicts):
//
//   - table-churn: 16 plain Maps (SSN, IPv6, INTS, URL2 × the four
//     families) under the paper's Inter(0.4,0.3) mix on one goroutine.
//   - striped-read: two goroutines, 1 put : 7 get, on one
//     ShardedAdaptiveMap over SSN/Pext.
//   - serve-batch: two keep-alive clients posting 64-key JSON batches
//     to a sepeserve daemon on loopback, alternating two tenants.
//
// With -trace 0 a run measures for -seconds and reports the end-to-end
// metrics. With -trace 1 it splits -seconds into an untraced and a
// traced half, records spans around the calls into each layer (kept
// in memory, written to <out>/traces at the end), runs the layer
// probes, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func init() {
	// The serve-batch daemon is started with Pdeathsig, which Linux
	// ties to the thread that forked it; keeping main on its own thread
	// means the daemon dies with this process and never earlier.
	runtime.LockOSThread()
}

const (
	// setupReps is how many times each workload sets up; setup_s is
	// the median.
	setupReps = 41
	// blockOps is the latency unit of the library workloads: one timed
	// block of consecutive operations, so the clock read does not
	// dominate a ~100 ns operation.
	blockOps = 256
)

// config is what every workload receives.
type config struct {
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	outDir   string
}

// outcome is what a workload returns: its end-to-end measurements, the
// per-layer metrics of a traced run, and the environment details only
// it knows (execution tiers).
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition
	ops       int64     // key operations completed in the timed phase
	wall      float64   // seconds of the timed phase
	lat       []float64 // µs per latency unit
	cpu       float64   // CPU seconds of the process doing the work
	memMiB    float64
	attempted int64
	failed    int64
	layers    metrics
	bypass    []string // per-layer metric prefixes of layers the workload never calls
	backends  map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"table-churn":  runChurn,
	"striped-read": runStriped,
	"serve-batch":  runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: table-churn, striped-read or serve-batch")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "seconds to measure")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		serveBin = flag.String("serve-bin", "", "sepeserve binary (serve-batch)")
		outDir   = flag.String("out", ".bench_build", "directory for result and trace files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		fail(errors.New("-seconds must be positive"))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, serveBin: *serveBin, outDir: *outDir}
	out, err := run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *workload, err))
	}
	if cfg.trace {
		if err := completeLayers(out.layers, out.bypass); err != nil {
			fail(fmt.Errorf("%s: %w", *workload, err))
		}
	}
	res := report(*workload, cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// report prints the human-readable summary and the environment block,
// saves both with the result under outDir, and returns the result.
func report(workload string, cfg config, o *outcome) result {
	e2e := metrics{}
	e2e.set("setup_s", "s", median(o.setup))
	e2e.set("keys_per_s", "keys/s", float64(o.ops)/o.wall)
	sort.Float64s(o.lat)
	e2e.set("lat_p50_us", "us", quantile(o.lat, 0.50))
	e2e.set("lat_tail_us", "us", quantile(o.lat, tailQuantile))
	e2e.set("cpu_ns_per_key", "ns", o.cpu*1e9/float64(o.ops))
	e2e.set("mem_mb", "MiB", o.memMiB)
	errorRate := float64(o.failed) / float64(o.attempted)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: e2e}
	if cfg.trace {
		res.Metrics = o.layers
	}

	fmt.Printf("workload %s  seed %d  %.1fs  trace=%v\n", workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, name := range sortedNames(e2e) {
		fmt.Printf("  %-16s %14.4f %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	fmt.Printf("  %-16s %14.6f ratio (%d failed of %d attempted)\n", "error_rate", errorRate, o.failed, o.attempted)
	fmt.Printf("  lat_tail_us is p%g over %d units; %d key ops in %.2f s\n", tailQuantile*100, len(o.lat), o.ops, o.wall)
	if cfg.trace {
		for _, name := range sortedNames(o.layers) {
			fmt.Printf("  %-40s %14.4f %s\n", name, o.layers[name].Value, o.layers[name].Unit)
		}
	}
	env := environment(o.backends)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	saved := map[string]any{
		"workload": workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"env": env, "end_to_end": e2e, "error_rate": errorRate,
		"tail_percentile": tailQuantile * 100, "result": res,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	if err := writeJSON(filepath.Join(cfg.outDir, "results", name), saved); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	return res
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// deadline returns the end of a phase of the given length.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
