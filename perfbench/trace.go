package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// Tracing. A traced run records a span at each layer boundary the
// benchmark calls across: name (layer), start, end, parent span, and
// the latency unit (block or request) it belongs to. Spans live in
// memory and are written as a Chrome trace when the run ends.
//
// A layer's self time is its span's duration minus what its children
// cover. A hash call inside a container operation lasts 10–40 ns, less
// than the pair of clock reads that would time it, so such inner
// layers are attributed rather than timed: the enclosing span's time
// moves to the inner layer as (operations counted at the boundary) ×
// (the inner layer's cost measured by its own probe).

type layer uint8

const (
	layerUnit layer = iota // root span of one latency unit; its self time is unaccounted
	layerBench
	layerHash
	layerContainer
	layerShard
	layerAdaptive
	layerServeWrite
	layerServeServer
	layerServeRead
	nLayers
)

var layerNames = [nLayers]string{
	"unit", "bench", "hash", "container", "shard", "adaptive",
	"serve.write", "serve.server", "serve.read",
}

// maxRawSpans bounds the spans one tracer keeps for the trace file;
// self times keep accumulating past it.
const maxRawSpans = 1 << 15

type span struct {
	layer      layer
	parent     int32 // index into the tracer's raw spans, -1 for a root
	unit       int64
	start, end int64 // ns since the tracer's epoch
	attributed bool  // time moved from the parent by attribution
	slot       int   // the tracer's goroutine
}

type frame struct {
	layer layer
	start int64
	child int64 // ns covered by children
	raw   int32
}

// tracer records the spans of one goroutine; it is not shared.
type tracer struct {
	epoch time.Time
	slot  int
	unit  int64
	self  [nLayers]int64
	stack []frame
	raw   []span
}

func newTracer(epoch time.Time, slot int) *tracer {
	return &tracer{epoch: epoch, slot: slot, raw: make([]span, 0, 1024)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginUnit opens the root span of the next latency unit.
func (t *tracer) beginUnit() {
	t.unit++
	t.begin(layerUnit)
}

// begin opens a span of layer l as a child of the open span.
func (t *tracer) begin(l layer) {
	f := frame{layer: l, raw: -1}
	if len(t.raw) < maxRawSpans {
		f.raw = int32(len(t.raw))
		t.raw = append(t.raw, span{layer: l, parent: t.parentRaw(), unit: t.unit, slot: t.slot})
	}
	f.start = t.now()
	if f.raw >= 0 {
		t.raw[f.raw].start = f.start
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	e := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := e - f.start
	t.self[f.layer] += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.raw >= 0 {
		t.raw[f.raw].end = e
	}
}

// record adds a closed child span [start, end) of the open span,
// timed elsewhere (by an httptrace callback).
func (t *tracer) record(l layer, start, end time.Time) {
	s, e := int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.self[l] += e - s
	t.stack[len(t.stack)-1].child += e - s
	if len(t.raw) < maxRawSpans {
		t.raw = append(t.raw, span{layer: l, parent: t.parentRaw(), unit: t.unit, start: s, end: e, slot: t.slot})
	}
}

// attribute moves d ns of the open span's time to inner layer l.
func (t *tracer) attribute(l layer, d float64) {
	top := &t.stack[len(t.stack)-1]
	n := int64(d)
	t.self[l] += n
	top.child += n
	if len(t.raw) < maxRawSpans {
		t.raw = append(t.raw, span{layer: l, parent: t.parentRaw(), unit: t.unit,
			start: top.start, end: top.start + n, attributed: true, slot: t.slot})
	}
}

func (t *tracer) parentRaw() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].raw
	}
	return -1
}

// ledger sums the tracers of one traced phase.
type ledger struct {
	self  [nLayers]float64 // ns
	spans []span
}

func mergeTracers(ts []*tracer) ledger {
	var l ledger
	for _, t := range ts {
		for i, v := range t.self {
			l.self[i] += float64(v)
		}
		l.spans = append(l.spans, t.raw...)
	}
	return l
}

// ledgerBar is the largest share of the untraced per-unit time the
// layer self times may leave unexplained (ROADMAP: "layer rows add up
// to within ±15% of each end-to-end row").
const ledgerBar = 15.0

// account reports the self time per unit of every layer that has one,
// trace.overhead_pct and trace.unaccounted_pct, and prints whether the
// ledger bar is met. untracedNs and tracedNs are one unit's wall time
// per worker in each phase.
func (l ledger) account(m metrics, units float64, untracedNs, tracedNs float64) {
	var sum float64
	for i := layerBench; i < nLayers; i++ {
		per := l.self[i] / units
		m.set("trace.self_ns."+layerNames[i], "ns", per)
		sum += per
	}
	unaccounted := (untracedNs - sum) / untracedNs * 100
	m.set("trace.overhead_pct", "%", (tracedNs-untracedNs)/untracedNs*100)
	m.set("trace.unaccounted_pct", "%", unaccounted)
	met := 0.0
	verdict := "MISSED"
	if unaccounted >= -ledgerBar && unaccounted <= ledgerBar {
		met, verdict = 1, "met"
	}
	m.set("trace.bar_met", "count", met)
	fmt.Printf("ledger bar ±%.0f%%: %s (layer self times %.1f ns of %.1f ns untraced per unit, %.2f%% unaccounted)\n",
		ledgerBar, verdict, sum, untracedNs, unaccounted)
}

// write saves the kept spans as a Chrome trace (chrome://tracing,
// Perfetto) under outDir/traces.
func (l ledger) write(outDir, name string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, event{
			Name: layerNames[s.layer], Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.slot,
			Args: map[string]any{"unit": s.unit, "parent": s.parent, "attributed": s.attributed},
		})
	}
	return writeJSON(filepath.Join(outDir, "traces", name+".json"), map[string]any{"traceEvents": evs})
}

// traceSlice is the length of one untraced or traced slice of a traced
// run.
const traceSlice = 0.5

// interleave alternates untraced and traced slices for seconds in
// total and returns the sum of each kind, so that drift of the host
// over the run does not read as tracing overhead.
func interleave(seconds float64, run func(seconds float64, traced bool) phaseResult) (un, tr phaseResult) {
	for i := 0; un.wall+tr.wall < seconds; i++ {
		if i%2 == 0 {
			un.add(run(traceSlice, false))
		} else {
			tr.add(run(traceSlice, true))
		}
	}
	return un, tr
}
