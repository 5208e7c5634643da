package sepe_test

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/sepe-go/sepe"
)

func ssnFormat(t *testing.T) *sepe.Format {
	t.Helper()
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInstrumentPreservesHashValues(t *testing.T) {
	f := ssnFormat(t)
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	raw := h.Func()
	m := sepe.NewMetricsRegistry().NewHash("pext")
	wrapped := sepe.Instrument(raw, m, nil)
	for i, key := range f.Samples(1000, 7) {
		if wrapped(key) != raw(key) {
			t.Fatalf("key %d: instrumented hash diverged", i)
		}
	}
}

func TestObservedMapMetricsMatchStats(t *testing.T) {
	f := ssnFormat(t)
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	reg := sepe.NewMetricsRegistry()
	m := sepe.NewMap[int](h.Func(), sepe.WithMetrics(reg, "ssnmap"))
	keys := f.Samples(5000, 3)
	for i, k := range keys {
		m.Put(k, i)
	}
	for _, k := range keys[:100] {
		m.Get(k)
	}
	m.Delete(keys[0])

	snap := reg.Snapshot().Containers[0]
	if snap.Name != "ssnmap" || snap.Puts != 5000 || snap.Gets != 100 || snap.Deletes != 1 {
		t.Fatalf("op counts: %+v", snap)
	}
	if snap.Rehashes == 0 {
		t.Fatal("5000 inserts did not rehash")
	}
	// The incrementally-maintained B-Coll must agree with the
	// authoritative offline recount.
	if got, want := snap.BucketCollisions, int64(m.Stats().BucketCollisions); got != want {
		t.Fatalf("running B-Coll = %d, Stats recount = %d", got, want)
	}
}

func TestObservedContainerKinds(t *testing.T) {
	reg := sepe.NewMetricsRegistry()

	// Each block ends with a structural op (Clear/Delete), which
	// flushes the batched per-op counters before the snapshot below.
	s := sepe.NewMap[struct{}](sepe.STLHash, sepe.WithMetrics(reg, "set"))
	s.Put("a", struct{}{})
	s.Get("a")
	s.Clear()

	mm := sepe.NewMultiMap[int](sepe.STLHash, sepe.WithMetrics(reg, "mmap"))
	mm.Put("k", 1)
	mm.Put("k", 2)
	mm.GetAll("k")
	mm.Clear()

	ms := sepe.NewMultiMap[struct{}](sepe.STLHash, sepe.WithMetrics(reg, "mset"))
	ms.Put("x", struct{}{})
	ms.Put("x", struct{}{})
	ms.Clear()

	snap := reg.Snapshot()
	if len(snap.Containers) != 3 {
		t.Fatalf("containers registered: %d", len(snap.Containers))
	}
	for _, c := range snap.Containers {
		if c.Puts == 0 {
			t.Fatalf("container %s recorded no puts", c.Name)
		}
	}
}

// TestObservedNilMetrics: WithMetrics with a nil registry feeds the
// default one.
func TestObservedNilMetrics(t *testing.T) {
	m := sepe.NewMap[int](sepe.STLHash, sepe.WithMetrics(nil, "nil-registry-map"))
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatal("nil-registry observed map misbehaves")
	}
	m.Delete("a") // structural op: flushes the batched counters
	for _, c := range sepe.Metrics().Snapshot().Containers {
		if c.Name == "nil-registry-map" && c.Puts == 1 && c.Deletes == 1 {
			return
		}
	}
	t.Fatal("nil registry did not select the default registry")
}

func TestFormatDriftMonitorEndToEnd(t *testing.T) {
	f := ssnFormat(t)
	degraded := 0
	d := f.DriftMonitor("ssn", sepe.DriftConfig{
		SampleEvery: 1,
		OnDegrade:   func(sepe.DriftSnapshot) { degraded++ },
	})
	// A conforming stream keeps the monitor healthy. Samples are drawn
	// from the quad-widened format, which Matches accepts by
	// construction.
	for _, k := range f.Samples(2000, 11) {
		d.Observe(k)
	}
	if d.Degraded() {
		t.Fatal("conforming stream degraded the monitor")
	}
	// 20% off-format keys must flip Degraded.
	for i := 0; i < 2000; i++ {
		if i%5 == 0 {
			d.Observe(fmt.Sprintf("user-%d@example.com", i))
		} else {
			d.Observe(fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000))
		}
	}
	if !d.Degraded() {
		t.Fatal("20% off-format stream did not degrade")
	}
	if degraded != 1 {
		t.Fatalf("OnDegrade fired %d times", degraded)
	}
}

func TestWithTracerEmitsSynthesisSpans(t *testing.T) {
	f := ssnFormat(t)
	tr := &sepe.CollectTracer{}
	if _, err := sepe.Synthesize(f, sepe.Pext, sepe.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"plan.pattern", "plan.pext", "synth.plan", "synth.verify", "synth.compile"} {
		if !names[want] {
			t.Errorf("missing span %q (got %v)", want, names)
		}
	}
	report := tr.Report()
	if !strings.Contains(report, "family=Pext") || !strings.Contains(report, "bijective=true") {
		t.Errorf("report missing attributes:\n%s", report)
	}
}

func TestMetricsHandlerServesDefaultRegistry(t *testing.T) {
	// The default registry is process-global; use a unique name so the
	// assertion is specific to this test.
	m := sepe.Metrics().NewHash("handler-test-hash")
	fn := sepe.Instrument(sepe.STLHash, m, nil)
	for i := 0; i < 1024; i++ {
		fn("some-key")
	}
	rw := httptest.NewRecorder()
	sepe.MetricsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rw.Body.String(), `sepe_hash_calls_total{hash="handler-test-hash"} 1024`) {
		t.Fatalf("metrics endpoint missing instrumented hash:\n%s", rw.Body.String())
	}
}
