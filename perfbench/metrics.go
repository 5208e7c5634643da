package main

import (
	"fmt"
	"strings"

	"github.com/sepe-go/sepe"
)

// metricDef is one declared metric; the lists below match
// BENCHMARK.json (TestDeclaredMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"keys_per_s", "keys/s"},
	{"lat_p50_us", "us"},
	{"lat_tail_us", "us"},
	{"cpu_ns_per_key", "ns"},
	{"mem_mb", "MiB"},
}

var perLayer = func() []metricDef {
	d := []metricDef{
		{"rex.parse_us", "us"},
		{"infer.infer_us", "us"},
	}
	for _, t := range churnFormats {
		d = append(d, metricDef{"core.synth_us." + t.Name(), "us"})
	}
	d = append(d,
		metricDef{"core.certify_us", "us"},
		metricDef{"wire.export_us", "us"},
		metricDef{"wire.import_us", "us"},
		metricDef{"wire.frame_bytes", "count"},
		metricDef{"serve.register_ms", "ms"},
	)
	for _, t := range churnFormats {
		for _, fam := range sepe.Families {
			d = append(d, metricDef{"hash.ns_per_key." + fnName(t, fam), "ns"})
		}
	}
	for _, t := range churnFormats {
		for _, op := range opNames {
			d = append(d, metricDef{"container." + op + "_ns." + t.Name(), "ns"})
		}
	}
	d = append(d,
		metricDef{"container.self_ns", "ns"},
		metricDef{"container.allocs_per_op", "count"},
		metricDef{"container.grow_count", "count"},
	)
	for _, t := range churnFormats {
		d = append(d,
			metricDef{"container.bcoll." + t.Name(), "count"},
			metricDef{"container.max_bucket." + t.Name(), "count"})
	}
	d = append(d,
		metricDef{"runtime.gc_per_mkey", "count"},
		metricDef{"shard.get_ns_1g", "ns"},
		metricDef{"shard.get_ns_2g", "ns"},
		metricDef{"shard.put_ns_2g", "ns"},
		metricDef{"shard.scale_2g", "ratio"},
		metricDef{"shard.imbalance", "ratio"},
		metricDef{"adaptive.tick_ns", "ns"},
		metricDef{"adaptive.hash_wrap_ns", "ns"},
		metricDef{"adaptive.swaps", "count"},
		metricDef{"serve.write_us", "us"},
		metricDef{"serve.server_us", "us"},
		metricDef{"serve.read_us", "us"},
		metricDef{"serve.req_bytes", "count"},
		metricDef{"serve.resp_bytes", "count"},
		metricDef{"serve.single_us", "us"},
		metricDef{"serve.hash_share_pct", "%"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.unaccounted_pct", "%"},
		metricDef{"trace.bar_met", "count"},
	)
	for l := layerBench; l < nLayers; l++ {
		d = append(d, metricDef{"trace.self_ns." + layerNames[l], "ns"})
	}
	return d
}()

// completeLayers checks a traced run's per-layer metrics against the
// declared list. A declared metric the workload did not set is
// reported as 0 when it belongs to a layer the workload bypasses (one
// of the bypass prefixes) and is an error otherwise; an undeclared
// one is always an error.
func completeLayers(m metrics, bypass []string) error {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
		if _, ok := m[d.name]; ok {
			continue
		}
		skipped := false
		for _, p := range bypass {
			skipped = skipped || strings.HasPrefix(d.name, p)
		}
		if !skipped {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		m.set(d.name, d.unit, 0)
	}
	for name := range m {
		if !declared[name] {
			return fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	return nil
}
