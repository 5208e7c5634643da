// Dashboard wires the full observability plane around a self-healing
// map and serves every surface on one address: Prometheus/JSON
// metrics, readiness and liveness probes, and the flight-recorder
// trace — the exact stack cmd/sepetop watches.
//
//	go run ./examples/dashboard
//	go run ./cmd/sepetop -url http://localhost:8080/metrics
//	curl localhost:8080/healthz                       # 503 while degraded
//	curl localhost:8080/livez                         # 503 only when pinned
//	curl 'localhost:8080/debug/trace?format=chrome'   # load in chrome://tracing
//
// The key stream starts as conforming SSNs; after -drift-after it
// switches to IPv4 addresses. The drift monitor degrades (readiness
// goes down, the flight recorder logs drift.degraded), the adaptive
// hash falls back, re-synthesizes for the new format and promotes it
// (adaptive.heal / adaptive.resynth spans), and the observed map's
// incremental migration shows up as container.migrate events and the
// migrating gauge — watch it all happen in sepetop.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/sepe-go/sepe"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "serve metrics/health/trace on this address")
		driftAfter = flag.Duration("drift-after", 5*time.Second, "switch the key stream from SSN to IPv4 after this long")
		dur        = flag.Duration("dur", 0, "exit after this long (0 = run until interrupted)")
	)
	flag.Parse()

	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		log.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("ssn-map", format, sepe.Pext, sepe.AdaptiveConfig{
		SampleEvery: 1, // demo: observe every key so the heal timeline is short
		Drift: sepe.DriftConfig{
			Window:     256,
			MinSamples: 64,
			OnDegrade: func(s sepe.DriftSnapshot) {
				fmt.Printf("!! drift: %.0f%% of the window off-format — fallback active, resynthesis starting\n",
					100*s.WindowRate)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ah.Close()

	// The observed adaptive map: probe depths and B-Coll feed the
	// container block, and the incremental migration after each hash
	// swap fires the migrate markers.
	m := sepe.NewMapAdaptive[int](ah, sepe.WithMetrics(nil, "ssn-map"))
	sepe.RegisterRuntimeMetrics()

	mux := http.NewServeMux()
	mux.Handle("/metrics", sepe.MetricsHandler())
	mux.Handle("/healthz", sepe.HealthHandler())
	mux.Handle("/livez", sepe.HealthHandler())
	mux.Handle("/debug/trace", sepe.TraceHandler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, mux)
	fmt.Printf("serving on http://%s — watch with: go run ./cmd/sepetop -url http://%s/metrics\n",
		ln.Addr(), ln.Addr())
	fmt.Printf("key stream drifts SSN → IPv4 in %v\n", *driftAfter)

	start := time.Now()
	var deadline time.Time
	if *dur > 0 {
		deadline = start.Add(*dur)
	}
	reported := sepe.AdaptiveSpecialized
	for i := 0; ; i++ {
		key := fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000)
		if time.Since(start) > *driftAfter {
			h := uint32(i) * 2654435761
			key = fmt.Sprintf("%03d.%03d.%03d.%03d", h&255, (h>>8)&255, (h>>16)&255, (h>>24)&255)
		}
		m.Put(key, i)
		m.Get(key)
		if i%64 == 0 {
			m.Delete(key)
		}
		if s := ah.State(); s != reported {
			reported = s
			fmt.Printf("   state → %v (generation %d, %d entries)\n", s, ah.Generation(), m.Len())
		}
		if i%1024 == 0 {
			time.Sleep(time.Millisecond) // leave the scraper some air
			if !deadline.IsZero() && time.Now().After(deadline) {
				return
			}
		}
	}
}
