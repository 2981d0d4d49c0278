package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"cloudskulk/internal/runner"
)

// span is one call from the benchmark into a layer's public function.
// Times are offsets from the tracer's origin, so spans recorded by cell
// tracers on runner.Map's worker goroutines line up with the main ones.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a phase root
	Run    int           `json:"run"`
	Name   string        `json:"name"` // "<layer>.<call>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// RT is the process-wide runtime delta over the span. Only spans
	// recorded on the main goroutine carry one: inside a runner.Map cell
	// process-wide counters would mix in the other workers.
	RT *rtStat `json:"runtime,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// rtStat is a snapshot (or, on a span, a delta) of the process counters
// the per-layer runtime metrics are built from.
type rtStat struct {
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCPU      float64 `json:"gc_cpu_s"`
	GCCycles   uint64  `json:"gc_cycles"`
	CPU        float64 `json:"cpu_s"` // user + system, getrusage
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRT(buf []metrics.Sample) rtStat {
	metrics.Read(buf)
	st := rtStat{
		AllocBytes: buf[0].Value.Uint64(),
		Mallocs:    buf[1].Value.Uint64(),
		GCCPU:      buf[2].Value.Float64(),
		GCCycles:   buf[3].Value.Uint64(),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return st
}

func (a rtStat) sub(b rtStat) rtStat {
	return rtStat{
		AllocBytes: a.AllocBytes - b.AllocBytes,
		Mallocs:    a.Mallocs - b.Mallocs,
		GCCPU:      a.GCCPU - b.GCCPU,
		GCCycles:   a.GCCycles - b.GCCycles,
		CPU:        a.CPU - b.CPU,
	}
}

// tracer records spans in memory. A disabled tracer records nothing and
// reads no clock, so the untraced and traced runs execute the same
// benchmark code.
type tracer struct {
	on     bool
	main   bool // runtime deltas are only meaningful on the main goroutine
	run    int
	origin time.Time
	spans  []span
	open   []int    // indices of open spans, innermost last
	rtAt   []rtStat // runtime snapshot taken when each open span began
	rtBuf  []metrics.Sample
}

func newTracer(on bool, run int) *tracer {
	t := &tracer{on: on, main: true, run: run, origin: time.Now()}
	if on {
		t.rtBuf = make([]metrics.Sample, len(rtMetricNames))
		for i, n := range rtMetricNames {
			t.rtBuf[i].Name = n
		}
	}
	return t
}

// call records fn as one span named "<layer>.<call>".
func (t *tracer) call(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	t.begin(name)
	err := fn()
	t.end()
	return err
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name})
	t.open = append(t.open, id)
	if t.main {
		t.rtAt = append(t.rtAt, readRT(t.rtBuf))
	}
	t.spans[id].Start = time.Since(t.origin)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.End = time.Since(t.origin)
	t.open = t.open[:n]
	if t.main {
		d := readRT(t.rtBuf).sub(t.rtAt[n])
		s.RT = &d
		t.rtAt = t.rtAt[:n]
	}
}

// fanOut runs cell(0..n-1) through runner.Map under a "runner.map" span.
// Each cell records into its own tracer (tracers are not shared across
// goroutines); their spans are merged under the runner.map span, in cell
// order, once the map returns.
func fanOut[T any](t *tracer, n, workers int, cell func(i int, t *tracer) (T, error)) ([]T, error) {
	type out struct {
		v  T
		tr *tracer
	}
	t.begin("runner.map")
	var mapID int
	if t.on {
		mapID = t.open[len(t.open)-1]
	}
	outs, err := runner.Map(n, runner.Options{Workers: workers}, func(i int) (out, error) {
		ct := &tracer{on: t.on, run: t.run, origin: t.origin}
		v, err := cell(i, ct)
		return out{v, ct}, err
	})
	t.end()
	if err != nil {
		return nil, err
	}
	vals := make([]T, len(outs))
	for i, o := range outs {
		vals[i] = o.v
		t.adopt(mapID, o.tr.spans)
	}
	return vals, nil
}

// adopt appends a cell tracer's spans, renumbered, with its root spans
// re-parented under parent.
func (t *tracer) adopt(parent int, spans []span) {
	off := len(t.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// layerOf maps a span name to its layer; the benchmark's own phase spans
// ("bench.*") are the unattributed remainder.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	if layer == "bench" {
		return "unattributed"
	}
	return layer
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of its interval that its child spans cover. Children that ran in
// parallel (runner.Map cells) are counted once where they overlap, so a
// fan-out span's self time is the part of its wall time no cell covered.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}
