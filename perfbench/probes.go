package main

import (
	"fmt"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// Layer probes: microbenchmarks of one layer's exported functions that
// do not depend on the workload, run in every traced run so that each
// workload's per-layer report is complete. They cover the set-up
// layers (rex, infer, core, wire), the hash kernels, and the adaptive
// hash wrapper.

// churnFormats are the formats of table-churn and of the probes: two
// short keys (SSN 11 B, IPv6 39 B) and two long ones (INTS 100 B, URL2
// 61 B with a 36-byte constant prefix), since string-hash cost grows
// with key length.
var churnFormats = []keys.Type{keys.SSN, keys.IPv6, keys.INTS, keys.URL2}

// probeKeys is the number of keys per format the hash probes hash.
const probeKeys = 4096

// fnName names a (format, family) pair in metric names.
func fnName(t keys.Type, fam sepe.Family) string { return t.Name() + "." + fam.String() }

// timeReps runs f reps times and returns the median duration in µs
// divided by per.
func timeReps(reps int, per float64, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, usSince(t0)/per)
	}
	return median(xs), nil
}

// probeLayers fills the probe metrics and returns the hash cost in ns
// per key of every (format, family) pair, for attribution.
func probeLayers(m metrics, seed uint64) (map[string]float64, error) {
	regexes := make([]string, len(churnFormats))
	for i, t := range churnFormats {
		regexes[i] = t.Regex()
	}
	us, err := timeReps(21, float64(len(regexes)), func() error {
		for _, re := range regexes {
			if _, err := sepe.ParseRegex(re); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("rex.parse_us", "us", us)

	examples := keys.NewGenerator(keys.SSN, keys.Uniform, seed).Distinct(1000)
	us, err = timeReps(7, 1, func() error { _, err := sepe.Infer(examples); return err })
	if err != nil {
		return nil, err
	}
	m.set("infer.infer_us", "us", us)

	var fns []*sepe.Hash
	var names []string
	probe := map[string][]string{}
	for _, t := range churnFormats {
		f, err := sepe.ParseRegex(t.Regex())
		if err != nil {
			return nil, err
		}
		us, err = timeReps(5, float64(len(sepe.Families)), func() error {
			for _, fam := range sepe.Families {
				if _, err := sepe.Synthesize(f, fam); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		m.set("core.synth_us."+t.Name(), "us", us)
		ks := keys.NewGenerator(t, keys.Uniform, seed).Distinct(probeKeys)
		for _, fam := range sepe.Families {
			h, err := sepe.Synthesize(f, fam)
			if err != nil {
				return nil, err
			}
			fns = append(fns, h)
			names = append(names, fnName(t, fam))
			probe[fnName(t, fam)] = ks
		}
	}

	n := float64(len(fns))
	us, _ = timeReps(5, n, func() error {
		for _, h := range fns {
			h.Certificate()
		}
		return nil
	})
	m.set("core.certify_us", "us", us)

	frames := make([][]byte, len(fns))
	us, err = timeReps(7, n, func() error {
		for i, h := range fns {
			var err error
			if frames[i], err = h.ExportPlan(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("wire.export_us", "us", us)
	bytes := 0
	for _, f := range frames {
		bytes += len(f)
	}
	m.set("wire.frame_bytes", "count", float64(bytes))
	us, err = timeReps(7, n, func() error {
		for i, f := range frames {
			h, err := sepe.ImportPlan(f)
			if err != nil {
				return err
			}
			if h.Family() != fns[i].Family() {
				return fmt.Errorf("imported %s plan came back as %s", names[i], h.Family())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("wire.import_us", "us", us)

	nsPerKey := map[string]float64{}
	for i, h := range fns {
		ns := hashBatchNs(h, probe[names[i]])
		nsPerKey[names[i]] = ns
		m.set("hash.ns_per_key."+names[i], "ns", ns)
	}

	wrap, err := adaptiveWrapNs(probe[fnName(keys.SSN, sepe.Pext)])
	if err != nil {
		return nil, err
	}
	m.set("adaptive.hash_wrap_ns", "ns", wrap)
	return nsPerKey, nil
}

// hashBatchNs is the median ns per key of HashBatch over ks in
// 256-key batches.
func hashBatchNs(h *sepe.Hash, ks []string) float64 {
	const batch, passes = 256, 8
	out := make([]uint64, batch)
	ns, _ := timeReps(9, float64(passes*len(ks))/1e3, func() error {
		for p := 0; p < passes; p++ {
			for b := 0; b+batch <= len(ks); b += batch {
				h.HashBatch(ks[b:b+batch], out)
			}
		}
		return nil
	})
	return ns
}

var sink uint64

// adaptiveWrapNs is the cost per key of AdaptiveHash.Hash over
// Hash.Hash for SSN/Pext, as the median of paired loops.
func adaptiveWrapNs(ks []string) (float64, error) {
	f, err := sepe.ParseRegex(keys.SSN.Regex())
	if err != nil {
		return 0, err
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		return 0, err
	}
	ah, err := sepe.NewAdaptiveHash("perfbench_probe", f, sepe.Pext, sepe.AdaptiveConfig{})
	if err != nil {
		return 0, err
	}
	defer ah.Close()
	const passes = 8
	loop := func(hash func(string) uint64) float64 {
		t0 := time.Now()
		var s uint64
		for p := 0; p < passes; p++ {
			for _, k := range ks {
				s ^= hash(k)
			}
		}
		sink ^= s
		return float64(time.Since(t0).Nanoseconds()) / float64(passes*len(ks))
	}
	diffs := make([]float64, 0, 15)
	for i := 0; i < 15; i++ {
		diffs = append(diffs, loop(ah.Hash)-loop(h.Hash))
	}
	return median(diffs), nil
}
