package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"github.com/sepe-go/sepe"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the
// benchmark reports and the ones BENCHMARK.json declares identical.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's; the benchmark reports:")
		for _, d := range perLayer {
			t.Logf(`{"name": %q, "unit": %q, "better": "lower"},`, d.name, d.unit)
		}
	}
}

// slowHash adds a fixed dependent multiply chain to every hash call,
// about 200 ns on a 2.6 GHz core.
func slowHash(fn sepe.HashFunc) sepe.HashFunc {
	return func(key string) uint64 {
		h := fn(key)
		x := h
		for i := 0; i < 128; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink ^= x
		return h
	}
}

// TestSensitivity shows that the benchmark sees a slowed layer: with
// the hash handed to the tables slowed by fixed extra work, table-churn
// keys_per_s falls by more than its bound, while an unwrapped control
// run of the same seed stays within it. The three kinds of run
// alternate and each reports its median of three, so drift of the host
// during the test does not decide it.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table-churn nine times")
	}
	var bound float64
	for _, m := range loadBenchmarkJSON(t).EndToEnd {
		if m.Name == "keys_per_s" {
			bound = m.Bound
		}
	}
	cfg := config{seed: 7, seconds: 2, outDir: t.TempDir()}
	rate := func(wrap hashWrap) float64 {
		o, err := runChurnWith(cfg, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("%d of %d checks failed", o.failed, o.attempted)
		}
		return float64(o.ops) / o.wall
	}
	var bases, slows, controls []float64
	for i := 0; i < 3; i++ {
		bases = append(bases, rate(nil))
		slows = append(slows, rate(slowHash))
		controls = append(controls, rate(nil))
	}
	base, slowed, control := median(bases), median(slows), median(controls)
	t.Logf("keys_per_s: base %.0f, slowed %.0f (%+.1f%%), control %.0f (%+.1f%%), bound %.0f%%",
		base, slowed, (slowed/base-1)*100, control, (control/base-1)*100, bound*100)
	if slowed >= base*(1-bound) {
		t.Errorf("slowed hash moved keys_per_s by %.1f%%, within the %.0f%% bound", (1-slowed/base)*100, bound*100)
	}
	if control < base*(1-bound) {
		t.Errorf("unwrapped control moved keys_per_s by %.1f%%, beyond the %.0f%% bound", (1-control/base)*100, bound*100)
	}
}
