package telemetry

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Tracer records coarse stage spans — one per pipeline stage execution
// (sim run, ingest seal, report decode, event replay) — with wall-time
// histograms and heap-allocation deltas per stage. It is for stages
// measured in microseconds and up, not per-packet work: each span reads
// the runtime allocation counters twice, which is cheap (runtime/metrics,
// no stop-the-world) but not free. Alloc deltas are process-wide, so they
// attribute cleanly only when one stage runs at a time — which is how the
// cmds use it.
//
// A nil *Tracer returns zero Spans whose End is a no-op, with no
// allocation and no clock reads — the same disabled contract as the
// metric types.
type Tracer struct {
	reg    *Registry
	mu     sync.Mutex
	stages map[string]*stage
}

type stage struct {
	runs       *Counter
	wallNs     *Histogram
	allocBytes *Counter
	allocObjs  *Counter
}

// NewTracer returns a tracer exporting through reg; nil reg yields a nil
// (disabled) tracer.
func NewTracer(reg *Registry) *Tracer {
	if reg == nil {
		return nil
	}
	return &Tracer{reg: reg, stages: make(map[string]*stage)}
}

// stageFor lazily registers the per-stage series.
func (t *Tracer) stageFor(name string) *stage {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.stages[name]; ok {
		return st
	}
	label := `stage="` + sanitize(name) + `"`
	st := &stage{
		runs:       t.reg.CounterL("umon_stage_runs_total", "stage executions", label),
		wallNs:     t.reg.HistogramL("umon_stage_wall_ns", "stage wall time (ns)", label),
		allocBytes: t.reg.CounterL("umon_stage_alloc_bytes_total", "heap bytes allocated during stage", label),
		allocObjs:  t.reg.CounterL("umon_stage_allocs_total", "heap objects allocated during stage", label),
	}
	t.stages[name] = st
	return st
}

// Span is one in-flight stage execution. The zero Span (from a nil
// Tracer) is inert. It is four words — the start time is monotonic
// nanoseconds since spanEpoch, not a time.Time — so that the compiler
// keeps it in registers and a disabled Start/End pair folds to nothing.
type Span struct {
	st      *stage
	startNs int64
	bytes0  uint64
	objs0   uint64
}

// spanEpoch is the origin of Span start times.
var spanEpoch = time.Now()

// Start opens a span for the named stage. The enabled half is start, so
// that the nil check alone inlines into callers.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.start(name)
}

func (t *Tracer) start(name string) Span {
	b, o := readAllocs()
	return Span{st: t.stageFor(name), startNs: int64(time.Since(spanEpoch)), bytes0: b, objs0: o}
}

// End closes the span, recording wall time and allocation deltas. The
// enabled half is end, so that the nil check alone inlines into callers.
func (s Span) End() {
	if s.st != nil {
		s.end()
	}
}

func (s Span) end() {
	wall := int64(time.Since(spanEpoch)) - s.startNs
	b, o := readAllocs()
	s.st.runs.Inc()
	s.st.wallNs.Observe(wall)
	s.st.allocBytes.Add(int64(b - s.bytes0))
	s.st.allocObjs.Add(int64(o - s.objs0))
}

// readAllocs samples the runtime's cumulative heap-allocation counters.
func readAllocs() (bytes, objects uint64) {
	samples := make([]metrics.Sample, 2)
	samples[0].Name = "/gc/heap/allocs:bytes"
	samples[1].Name = "/gc/heap/allocs:objects"
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		bytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		objects = samples[1].Value.Uint64()
	}
	return bytes, objects
}
